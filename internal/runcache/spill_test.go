package runcache

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"scaltool/internal/faultinject"
	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/sim"
)

// TestSpillFrameRoundTrip pins the frame layout: magic, little-endian payload
// length, CRC-32C, then the payload — and a decode that inverts it exactly.
func TestSpillFrameRoundTrip(t *testing.T) {
	cfg := machine.TinyTest()
	prog := testProg(t, cfg, "app", 2, 2)
	res, err := sim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := encodeSpillFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(framed[:8], spillMagic[:]) {
		t.Fatalf("frame magic = %q", framed[:8])
	}
	if plen := binary.LittleEndian.Uint64(framed[8:16]); plen != uint64(len(framed)-spillHeaderBytes) {
		t.Fatalf("declared payload %d bytes, frame carries %d", plen, len(framed)-spillHeaderBytes)
	}
	got, damage, err := decodeSpillFrame(framed)
	if err != nil {
		t.Fatalf("round-trip decode failed (%s): %v", damage, err)
	}
	if !bytes.Equal(encode(t, got), encode(t, res)) {
		t.Fatal("round-tripped result differs from the original")
	}
}

// TestSpillFrameGolden decodes a frame recorded by an earlier build of the
// spill writer, so existing spill directories stay readable, and requires
// today's writer to reproduce it byte for byte, so neither the layout nor
// the CRC-32C can drift. The frame holds a TinyTest simulation of
// testProg("golden", 2 procs, 1 region); never regenerate it.
func TestSpillFrameGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "spill_frame_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	res, damage, err := decodeSpillFrame(golden)
	if err != nil {
		t.Fatalf("recorded frame no longer decodes (%s): %v", damage, err)
	}
	cfg := machine.TinyTest()
	want, err := sim.Run(cfg, testProg(t, cfg, "golden", 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, res), encode(t, want)) {
		t.Fatal("recorded frame decodes to a different result than a fresh simulation")
	}
	again, err := encodeSpillFrame(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, golden) {
		t.Fatal("spill writer no longer reproduces the recorded frame")
	}
}

// TestSpillFrameDamageClasses mutates a valid frame one way per damage class
// and checks each is detected, classified, and never decoded into a Result.
func TestSpillFrameDamageClasses(t *testing.T) {
	cfg := machine.TinyTest()
	res, err := sim.Run(cfg, testProg(t, cfg, "app", 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	valid, err := encodeSpillFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	// A frame whose CRC is honest about a payload the decoder rejects: the
	// integrity layer passes, the codec layer must still classify it.
	badPayload := []byte(`{"version":9999}`)
	undecodable := make([]byte, spillHeaderBytes+len(badPayload))
	copy(undecodable[:8], spillMagic[:])
	binary.LittleEndian.PutUint64(undecodable[8:16], uint64(len(badPayload)))
	binary.LittleEndian.PutUint32(undecodable[16:20], crc32.Checksum(badPayload, castagnoli))
	copy(undecodable[spillHeaderBytes:], badPayload)

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		class  string
	}{
		{"empty file", func(b []byte) []byte { return nil }, "header"},
		{"short header", func(b []byte) []byte { return b[:spillHeaderBytes-1] }, "header"},
		{"wrong magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, "header"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-7] }, "torn"},
		{"appended garbage", func(b []byte) []byte { return append(b, 0xAA) }, "torn"},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-2] ^= 0x01; return b }, "crc"},
		{"flipped stored crc", func(b []byte) []byte { b[17] ^= 0x01; return b }, "crc"},
		{"undecodable payload", func(b []byte) []byte { return undecodable }, "decode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			got, class, err := decodeSpillFrame(data)
			if err == nil || got != nil {
				t.Fatalf("damaged frame decoded: res=%v err=%v", got, err)
			}
			if class != tc.class {
				t.Fatalf("damage classified %q, want %q (%v)", class, tc.class, err)
			}
		})
	}
}

// TestSpillLoadQuarantines drives loadSpill over an on-disk entry damaged in
// place: the load must miss, count the damage class, and move the file into
// the quarantine directory so it is never re-read as a cache entry.
func TestSpillLoadQuarantines(t *testing.T) {
	cfg := machine.TinyTest()
	prog := testProg(t, cfg, "app", 2, 2)
	res, err := sim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c := New(Options{MaxBytes: 1 << 20, SpillDir: dir})
	key := KeyFor(cfg, prog)
	if err := c.writeSpill(key, res); err != nil {
		t.Fatal(err)
	}
	mt := obs.NewMetrics()

	// Undamaged: loads cleanly, nothing counted, nothing quarantined.
	if got, ok := c.loadSpill(key, mt); !ok || got == nil {
		t.Fatal("clean spill entry did not load")
	}
	if n := mt.RuncacheCorrupt("crc").Value(); n != 0 {
		t.Fatalf("clean load counted %d corruptions", n)
	}

	// Flip one payload byte on disk.
	path := c.spillPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if got, ok := c.loadSpill(key, mt); ok || got != nil {
		t.Fatal("corrupt spill entry loaded")
	}
	if n := mt.RuncacheCorrupt("crc").Value(); n != 1 {
		t.Fatalf("crc corruption count = %d, want 1", n)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("damaged file still at its spill path (err=%v)", err)
	}
	q := filepath.Join(dir, quarantineDirName, filepath.Base(path))
	if _, err := os.Stat(q); err != nil {
		t.Fatalf("damaged file not quarantined at %s: %v", q, err)
	}
	// The next load is a plain miss — quarantine is terminal, counted once.
	if _, ok := c.loadSpill(key, mt); ok {
		t.Fatal("quarantined entry loaded")
	}
	if n := mt.RuncacheCorrupt("crc").Value(); n != 1 {
		t.Fatalf("quarantined entry re-counted: %d", n)
	}
}

// TestSpillFaultInjection closes the loop with the chaos hook: an injector
// that mangles every spill write (torn or bit-rotted frames) must never
// produce a wrong answer — reloads detect the damage, quarantine the file,
// and re-simulate to a byte-identical result.
func TestSpillFaultInjection(t *testing.T) {
	cfg := machine.TinyTest()
	for _, tc := range []struct {
		name  string
		spec  faultinject.Spec
		class string
	}{
		{"torn write", faultinject.Spec{Seed: 7, Truncate: 1}, "torn"},
		{"bit rot", faultinject.Spec{Seed: 7, Corrupt: 1}, "crc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			prog := testProg(t, cfg, "app", 2, 2)
			res, err := sim.Run(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			want := encode(t, res)
			c := New(Options{MaxBytes: 1 << 20, SpillDir: dir, Inject: faultinject.New(tc.spec)})
			key := KeyFor(cfg, prog)
			if err := c.writeSpill(key, res); err != nil {
				t.Fatal(err)
			}

			mt := obs.NewMetrics()
			if got, ok := c.loadSpill(key, mt); ok || got != nil {
				t.Fatal("mangled spill entry loaded as valid")
			}
			classes := []string{"header", "torn", "crc", "decode"}
			var total uint64
			for _, cl := range classes {
				total += mt.RuncacheCorrupt(cl).Value()
			}
			if total != 1 || mt.RuncacheCorrupt(tc.class).Value() != 1 {
				t.Fatalf("damage not classified %q exactly once (total %d)", tc.class, total)
			}

			// The full miss path re-simulates and the answer is unchanged.
			got, hit, err := c.GetOrRun(context.Background(), cfg, prog, func(ctx context.Context) (*sim.Result, error) {
				return sim.RunContext(ctx, cfg, prog)
			})
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Fatal("mangled entry reported as a cache hit")
			}
			if !bytes.Equal(encode(t, got), want) {
				t.Fatal("re-simulated result differs from the original")
			}
		})
	}
}

// TestSpillWriteThrough checks the disk tier's write policy: a simulated
// result is published before GetOrRun returns, with no eviction needed, and
// an injected fault at that write (crash, torn write, failed fsync) fails
// the call with faultinject.ErrCrash, publishes nothing, and caches
// nothing — the next request simulates again and publishes normally.
func TestSpillWriteThrough(t *testing.T) {
	cfg := machine.TinyTest()
	prog := testProg(t, cfg, "app", 2, 2)
	for _, tc := range []struct {
		name  string
		spec  faultinject.Spec
		temps int // temp files a fault leaves behind
	}{
		{"no fault", faultinject.Spec{}, 0},
		{"crash", faultinject.Spec{CrashAppend: 1}, 0},
		{"torn write", faultinject.Spec{TornAppend: 1}, 1},
		{"fsync failure", faultinject.Spec{FsyncFail: 1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := New(Options{MaxBytes: 1 << 20, SpillDir: dir, Inject: faultinject.New(tc.spec)})
			runs := 0
			get := func() error {
				_, _, err := c.GetOrRun(context.Background(), cfg, prog, func(ctx context.Context) (*sim.Result, error) {
					runs++
					return sim.RunContext(ctx, cfg, prog)
				})
				return err
			}
			published := func() bool {
				_, err := os.Stat(c.spillPath(KeyFor(cfg, prog)))
				return err == nil
			}
			err := get()
			faulted := tc.spec.Active()
			if faulted != errors.Is(err, faultinject.ErrCrash) || faulted == published() {
				t.Fatalf("first write: err = %v, published = %v", err, published())
			}
			if temps, _ := filepath.Glob(filepath.Join(dir, "spill-*.tmp")); len(temps) != tc.temps {
				t.Fatalf("%d temp files left, want %d", len(temps), tc.temps)
			}
			if err := get(); err != nil || !published() {
				t.Fatalf("second request: err = %v, published = %v", err, published())
			}
			if want := map[bool]int{false: 1, true: 2}[faulted]; runs != want {
				t.Fatalf("%d simulations, want %d", runs, want)
			}
		})
	}
}

// TestSpillWriteFailureIsNotFatal points the disk tier at a path that
// cannot be a directory: a real I/O failure only loses the disk copy, and
// the simulated result is still returned and cached in memory.
func TestSpillWriteFailureIsNotFatal(t *testing.T) {
	cfg := machine.TinyTest()
	prog := testProg(t, cfg, "app", 2, 2)
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Options{MaxBytes: 1 << 20, SpillDir: notDir})
	for i, wantHit := range []bool{false, true} {
		res, hit, err := c.GetOrRun(context.Background(), cfg, prog, func(ctx context.Context) (*sim.Result, error) {
			return sim.RunContext(ctx, cfg, prog)
		})
		if err != nil || res == nil || hit != wantHit {
			t.Fatalf("request %d: res=%v hit=%v err=%v", i, res != nil, hit, err)
		}
	}
}
