package runcache

// The fleet's shared cache tier: N replica processes pointing -cache-dir at
// one directory. These tests hold the contract documented in spill.go — no
// cross-process locks, yet concurrent writers of the same key, writers
// racing readers, and temp-file naming are all collision-free.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"scaltool/internal/machine"
	"scaltool/internal/obs"
	"scaltool/internal/sim"
)

// spillHelperEnv, when set, turns the test binary into the second process
// of TestSpillTwoProcessContention: a loop hammering the shared spill
// directory it names.
const spillHelperEnv = "RUNCACHE_SPILL_HELPER_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(spillHelperEnv); dir != "" {
		os.Exit(spillHelperMain(dir))
	}
	os.Exit(m.Run())
}

// contentionKeys is the shared workload of both contention tests: a small
// key set both sides write and read continuously, with the expected bytes
// for each. Built deterministically so two processes agree without talking.
func contentionKeys(cfg machine.Config) (keys []Key, progs []*sim.Program, want [][]byte, err error) {
	for i := 0; i < 4; i++ {
		prog, perr := sim.NewProgram(fmt.Sprintf("shared%d", i), 2, 1<<14, cfg.PageBytes)
		if perr != nil {
			return nil, nil, nil, perr
		}
		arr := prog.MustAlloc("a", 1<<14)
		reg := prog.AddRegion("r0")
		for p := 0; p < 2; p++ {
			st := reg.Proc(p)
			st.Compute(100 + uint64(i)*10)
			st.Read(arr.Base+uint64(p)*1024, 32, 32, 1)
		}
		res, rerr := sim.Run(cfg, prog)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		var buf bytes.Buffer
		if eerr := sim.EncodeResult(&buf, res); eerr != nil {
			return nil, nil, nil, eerr
		}
		keys = append(keys, KeyFor(cfg, prog))
		progs = append(progs, prog)
		want = append(want, buf.Bytes())
	}
	return keys, progs, want, nil
}

// hammerSpill runs iters rounds of write-then-read over every shared key
// against one Cache, verifying each successful load byte-for-byte. Returns
// an error on the first wrong answer; corruption is checked by the caller
// via the metrics it passed in.
func hammerSpill(c *Cache, cfg machine.Config, iters int, mt *obs.Metrics) error {
	keys, progs, want, err := contentionKeys(cfg)
	if err != nil {
		return err
	}
	for it := 0; it < iters; it++ {
		for i, key := range keys {
			res, err := sim.Run(cfg, progs[i])
			if err != nil {
				return err
			}
			if err := c.writeSpill(key, res); err != nil {
				return fmt.Errorf("writeSpill(%s) on iter %d: %w", key, it, err)
			}
			got, ok := c.loadSpill(key, mt)
			if !ok {
				// A miss is only legal before the first write lands; we just
				// wrote it, and renames never un-publish a key.
				return fmt.Errorf("loadSpill(%s) missed after a write on iter %d", key, it)
			}
			var buf bytes.Buffer
			if err := sim.EncodeResult(&buf, got); err != nil {
				return err
			}
			if !bytes.Equal(buf.Bytes(), want[i]) {
				return fmt.Errorf("key %s loaded wrong bytes on iter %d", key, it)
			}
		}
	}
	return nil
}

// corruptionCount sums every damage class the metrics saw.
func corruptionCount(mt *obs.Metrics) uint64 {
	var total uint64
	for _, class := range []string{"header", "torn", "crc", "decode"} {
		total += mt.RuncacheCorrupt(class).Value()
	}
	return total
}

// spillHelperMain is the second process: hammer the shared directory, exit
// 0 only if every load was byte-correct and nothing looked corrupt.
func spillHelperMain(dir string) int {
	cfg := machine.TinyTest()
	c := New(Options{MaxBytes: 1 << 20, SpillDir: dir})
	mt := obs.NewMetrics()
	if err := hammerSpill(c, cfg, 40, mt); err != nil {
		fmt.Fprintln(os.Stderr, "spill helper:", err)
		return 1
	}
	if n := corruptionCount(mt); n != 0 {
		fmt.Fprintln(os.Stderr, "spill helper: saw", n, "corrupt frames")
		return 1
	}
	return 0
}

// TestSpillTwoProcessContention is the fleet's shared-cache-tier gate: two
// OS processes (this one and a re-exec of the test binary) hammer the same
// spill directory — same keys, interleaved writes and reads — and neither
// may ever observe a torn, corrupt, or wrong-bytes entry. This is exactly
// the traffic pattern of N replicas sharing one -cache-dir.
func TestSpillTwoProcessContention(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	dir := t.TempDir()
	helper := exec.Command(os.Args[0], "-test.run=^$")
	helper.Env = append(os.Environ(), spillHelperEnv+"="+dir)
	var helperOut bytes.Buffer
	helper.Stdout, helper.Stderr = &helperOut, &helperOut
	if err := helper.Start(); err != nil {
		t.Fatal(err)
	}

	cfg := machine.TinyTest()
	c := New(Options{MaxBytes: 1 << 20, SpillDir: dir})
	mt := obs.NewMetrics()
	if err := hammerSpill(c, cfg, 40, mt); err != nil {
		_ = helper.Process.Kill()
		_, _ = helper.Process.Wait()
		t.Fatal(err)
	}
	if err := helper.Wait(); err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, helperOut.String())
	}
	if n := corruptionCount(mt); n != 0 {
		t.Fatalf("parent saw %d corrupt frames under two-process contention", n)
	}
	// The directory holds only published entries: no stranded temp files,
	// no quarantined frames.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "spill-*.tmp")); len(tmps) != 0 {
		t.Fatalf("stranded temp files after contention: %v", tmps)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName)); !os.IsNotExist(err) {
		t.Fatalf("quarantine directory appeared under healthy contention (err=%v)", err)
	}
	// And every published entry still decodes to the right bytes.
	keys, _, want, err := contentionKeys(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		got, ok := c.loadSpill(key, mt)
		if !ok {
			t.Fatalf("key %s missing after contention", key)
		}
		var buf bytes.Buffer
		if err := sim.EncodeResult(&buf, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want[i]) {
			t.Fatalf("key %s holds wrong bytes after contention", key)
		}
	}
}

// TestSpillSharedDirConcurrentCaches models the same contention inside one
// process, where the race detector can see it: two Cache instances (two
// replicas) share a spill directory, each hammered by concurrent goroutines
// through the full GetOrRun path with a byte budget tiny enough to force
// continuous eviction and spill.
func TestSpillSharedDirConcurrentCaches(t *testing.T) {
	dir := t.TempDir()
	cfg := machine.TinyTest()
	_, progs, want, err := contentionKeys(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Budget ≈ one entry: every insert evicts (and spills) a predecessor.
	caches := []*Cache{
		New(Options{MaxBytes: 8 << 10, SpillDir: dir}),
		New(Options{MaxBytes: 8 << 10, SpillDir: dir}),
	}
	mt := obs.NewMetrics()
	ctx := obs.NewContext(context.Background(), &obs.Observer{Metrics: mt})

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, c := range caches {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				for it := 0; it < 15; it++ {
					for i, prog := range progs {
						got, _, err := c.GetOrRun(ctx, cfg, prog, func(ctx context.Context) (*sim.Result, error) {
							return sim.RunContext(ctx, cfg, prog)
						})
						if err != nil {
							errs <- err
							return
						}
						var buf bytes.Buffer
						if err := sim.EncodeResult(&buf, got); err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(buf.Bytes(), want[i]) {
							errs <- fmt.Errorf("cache returned wrong bytes for key %d", i)
							return
						}
					}
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := corruptionCount(mt); n != 0 {
		t.Fatalf("saw %d corrupt frames under shared-dir contention", n)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName)); !os.IsNotExist(err) {
		t.Fatalf("quarantine directory appeared under healthy contention (err=%v)", err)
	}
}
