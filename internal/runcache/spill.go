package runcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"scaltool/internal/faultinject"
	"scaltool/internal/obs"
	"scaltool/internal/sim"
)

// Spill policy. With a SpillDir every simulated result is written through
// to disk as its flight completes, before any caller sees it, so the
// directory holds every run the cache ever simulated: a restarted process
// (or a rerun campaign) finds them all as disk hits, and an LRU eviction
// only drops the memory copy. The write goes to a temp file that is
// fsynced, renamed into place, and followed by a directory fsync, so a
// published entry survives power loss.
//
// Spill integrity. The temp file + rename protects against a torn write of
// the *final* name — but says nothing about bit rot, a filesystem that lied
// about durability, or an operator truncating files. A corrupt spill entry must never be decoded into a
// half-real Result and served as if it were a simulation: the simulator is
// deterministic, so the safe conversion for any damage is a cache miss and a
// re-simulation.
//
// Every spill file is therefore framed with a CRC-32C (Castagnoli)
// checksum:
//
//	[8-byte magic "SCSPILL1"][8-byte LE payload length][4-byte LE CRC-32C][payload]
//
// On load the frame is verified before the payload is decoded. Damage is
// classified (header, torn, crc, decode), counted in
// scaltool_runcache_corrupt_total, and the file is moved into a quarantine
// subdirectory for forensics rather than silently deleted.
//
// Sharing one SpillDir across PROCESSES is supported — it is the fleet's
// shared cache tier: N scaltoold replicas point -cache-dir at one
// directory, so an entry spilled by any replica is a disk hit for all of
// them. The protocol needs no cross-process locks because every operation
// is already safe under concurrency from other processes:
//
//   - Temp names never collide: os.CreateTemp opens with O_CREATE|O_EXCL
//     and a random suffix, so two replicas spilling the same key write
//     disjoint temp files.
//   - Publication is a single atomic rename. Concurrent writers of one key
//     race benignly: the simulator is deterministic, so both temp files
//     hold byte-identical frames and either rename winning leaves the same
//     content. A reader racing the rename sees the complete old file or
//     the complete new one, never a splice.
//   - Quarantine races are benign the same way: the losing rename fails
//     (the source is gone) and falls back to a no-op remove.
//
// TestSpillTwoProcessContention drives two real OS processes at one
// directory to hold all of this; TestSpillSharedDirConcurrentCaches does
// the same for two Cache instances in one process under the race detector.

// spillMagic identifies (and versions) the spill frame format.
var spillMagic = [8]byte{'S', 'C', 'S', 'P', 'I', 'L', 'L', '1'}

const spillHeaderBytes = 8 + 8 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// quarantineDirName is the subdirectory of SpillDir that holds entries that
// failed their integrity check.
const quarantineDirName = "quarantine"

// encodeSpillFrame frames an encoded Result for disk.
func encodeSpillFrame(res *sim.Result) ([]byte, error) {
	var payload bytes.Buffer
	if err := sim.EncodeResult(&payload, res); err != nil {
		return nil, err
	}
	out := make([]byte, spillHeaderBytes+payload.Len())
	copy(out[:8], spillMagic[:])
	binary.LittleEndian.PutUint64(out[8:16], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(out[16:20], crc32.Checksum(payload.Bytes(), castagnoli))
	copy(out[spillHeaderBytes:], payload.Bytes())
	return out, nil
}

// decodeSpillFrame verifies a frame and decodes its payload. On failure it
// reports the damage class ("header", "torn", "crc", "decode") alongside the
// error.
func decodeSpillFrame(data []byte) (*sim.Result, string, error) {
	if len(data) < spillHeaderBytes || !bytes.Equal(data[:8], spillMagic[:]) {
		return nil, "header", fmt.Errorf("runcache: spill frame header invalid (%d bytes)", len(data))
	}
	plen := binary.LittleEndian.Uint64(data[8:16])
	body := data[spillHeaderBytes:]
	if uint64(len(body)) != plen {
		return nil, "torn", fmt.Errorf("runcache: spill frame declares %d payload bytes, has %d", plen, len(body))
	}
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(data[16:20]); got != want {
		return nil, "crc", fmt.Errorf("runcache: spill frame CRC %08x, want %08x", got, want)
	}
	res, err := sim.DecodeResult(bytes.NewReader(body))
	if err != nil {
		return nil, "decode", err
	}
	return res, "", nil
}

// quarantineSpill moves a damaged spill file aside (falling back to deletion
// if the move fails) so it is never re-read as a cache entry but remains
// available for forensics.
func (c *Cache) quarantineSpill(path string) {
	qdir := filepath.Join(c.spillDir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
			return
		}
	}
	_ = os.Remove(path)
}

// writeSpill writes a simulated result to disk under its key. An injected
// durability fault (Options.Inject) models the process dying at this write
// and returns an error wrapping faultinject.ErrCrash. The injector also
// mangles the framed bytes on their way to disk — the chaos tests'
// torn-write and bit-rot point, which the CRC catches.
func (c *Cache) writeSpill(key Key, res *sim.Result) error {
	path := c.spillPath(key)
	if path == "" {
		return nil
	}
	n := c.writes.Add(1)
	fault := c.inject.SpillWrite(n)
	if fault == faultinject.SpillCrash {
		return fmt.Errorf("runcache: crash before spill write %d: %w", n, faultinject.ErrCrash)
	}
	framed, err := encodeSpillFrame(res)
	if err != nil {
		return err
	}
	if c.inject != nil {
		framed, _ = c.inject.MangleFile(filepath.Base(path), framed)
	}
	if err := os.MkdirAll(c.spillDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.spillDir, "spill-*.tmp")
	if err != nil {
		return err
	}
	if fault == faultinject.SpillTorn {
		// The process dies mid-write: half the frame stays in a temp file
		// that is never renamed, so no reader can see it.
		_, _ = tmp.Write(framed[:len(framed)/2])
		_ = tmp.Close()
		return fmt.Errorf("runcache: crash during spill write %d: %w", n, faultinject.ErrCrash)
	}
	_, err = tmp.Write(framed)
	if err == nil {
		if fault == faultinject.SpillFsyncFail {
			err = fmt.Errorf("runcache: fsync failed at spill write %d: %w", n, faultinject.ErrCrash)
		} else {
			err = tmp.Sync()
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	// Make the new name itself durable. A failure here still leaves a
	// complete, verified entry; at worst power loss turns it into a miss.
	if d, err := os.Open(c.spillDir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// loadSpill reads a spilled entry back, or nil. An entry that fails its
// integrity check — torn frame, checksum mismatch, undecodable payload — is
// quarantined, counted, and treated as a miss: the run is deterministic, so
// it is simply regenerated.
func (c *Cache) loadSpill(key Key, mt *obs.Metrics) (*sim.Result, bool) {
	path := c.spillPath(key)
	if path == "" {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	res, damage, err := decodeSpillFrame(data)
	if err != nil {
		c.quarantineSpill(path)
		if mt != nil {
			mt.RuncacheCorrupt(damage).Inc()
		}
		return nil, false
	}
	return res, true
}
