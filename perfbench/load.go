package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hashPrefix is how many leading sequence indices responses_sha256
// covers: every run of a workload completes at least this many, so two
// runs of one seed hash the same requests.
const hashPrefix = 64

// connections is how many clients each closed loop runs: one, so a
// request's latency is its own service time, not its share of the host
// with a second request (two clients on two cores tripled the p90).
const connections = 1

// sample is one request of a window.
type sample struct {
	idx   int
	start time.Time // when the request was sent
	done  time.Time
	err   error // transport error, non-200 status or failed check
}

// pending is a fresh document's response, checked after the window so
// the checks' CPU stays out of the measurement.
type pending struct {
	slot   int // index into window.samples
	doc    *doc
	status int
	body   []byte
}

// window is one timed run of a workload against a server.
type window struct {
	begin, end time.Time
	samples    []sample
	steal      []stealSample  // the host's steal, every stealInterval
	bodies     map[int][]byte // responses of the first hashPrefix indices
	cpu        time.Duration  // process user+sys CPU over the window
	allocBytes uint64
	allocs     uint64
}

// runWindow drives the workload's sequence against h for dur and checks
// every response. recorded holds the warmed pool's bodies.
func runWindow(h *harness, w *workload, recorded map[string][]byte, dur time.Duration) (*window, error) {
	var mu sync.Mutex
	var pend []pending
	win := &window{bodies: map[int][]byte{}}

	// send issues one request and records its sample; a pool document is
	// checked on the spot (a byte comparison), a fresh one after the
	// window.
	send := func(i int, d *doc, start time.Time) {
		status, body, err := h.post(d.Route, d.Body)
		s := sample{idx: i, start: start, done: time.Now(), err: err}
		mu.Lock()
		defer mu.Unlock()
		if i < hashPrefix && s.err == nil {
			win.bodies[i] = body
		}
		if s.err == nil {
			if d.Pool >= 0 {
				s.err = checkPooled(d, status, body, recorded)
			} else {
				pend = append(pend, pending{slot: len(win.samples), doc: d, status: status, body: body})
			}
		}
		win.samples = append(win.samples, s)
	}

	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	ms0 := readMem()
	stop := make(chan struct{})
	stealc := sampleSteal(stop)
	win.begin = time.Now()
	win.end = win.begin.Add(dur)
	var wg sync.WaitGroup
	var genErr error
	var genOnce sync.Once
	var next atomic.Int64
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(win.end) {
				i := int(next.Add(1) - 1)
				d, err := w.at(i)
				if err != nil {
					genOnce.Do(func() { genErr = err })
					return
				}
				send(i, d, time.Now())
			}
		}()
	}
	wg.Wait()
	close(stop)
	win.steal = <-stealc
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	ms1 := readMem()
	win.cpu = cpu1 - cpu0
	win.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	win.allocs = ms1.Mallocs - ms0.Mallocs
	if genErr != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, genErr)
	}
	for _, p := range pend {
		win.samples[p.slot].err = checkBody(p.doc, p.status, p.body, nil)
	}
	return win, nil
}

// checkPooled compares a pool document's response with the body setup
// recorded for it, falling back to the full check to explain a mismatch.
func checkPooled(d *doc, status int, body []byte, recorded map[string][]byte) error {
	want, ok := recorded[d.poolKey()]
	if !ok {
		return fmt.Errorf("pool document %d was never warmed", d.Pool)
	}
	if status == 200 && string(body) == string(want) {
		return nil
	}
	if err := checkBody(d, status, body, want); err != nil {
		return err
	}
	return fmt.Errorf("pool document %d: body changed", d.Pool)
}

// responsesSHA256 hashes the (sequence index, body) pairs of the leading
// indices every run completes, and reports how many it covered.
func (win *window) responsesSHA256() (string, int) {
	h := sha256.New()
	n := 0
	for ; n < hashPrefix; n++ {
		b, ok := win.bodies[n]
		if !ok {
			break
		}
		var hdr [16]byte
		binary.BigEndian.PutUint64(hdr[:8], uint64(n))
		binary.BigEndian.PutUint64(hdr[8:], uint64(len(b)))
		h.Write(hdr[:])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), n
}

// The host is a VM whose hypervisor takes CPU time from it (steal: 1% to
// 38% of a vCPU in a second, 0.1% to 32% of the host over a 40 s run),
// and a request that loses its vCPU takes that much longer. The window
// samples the host's steal every stealInterval; latency and throughput
// cover the requests of its quietest intervals: the least stolen
// quietShare of them and every interval that ties with the last one
// taken, and more while they hold fewer than minQuiet requests. So they
// measure the program rather than its neighbours. CPU time, which steal
// is not charged to, and allocations cover the whole window.
const (
	stealInterval = 100 * time.Millisecond
	quietShare    = 1.0 / 6
	minQuiet      = 150
)

// stealSample is the host's cumulative CPU ticks, over all CPUs, at one
// moment.
type stealSample struct {
	at           time.Time
	steal, total uint64
}

// readSteal reads the host's cumulative steal and total CPU ticks from
// /proc/stat; ok is false where there is none.
func readSteal() (stealSample, bool) {
	s := stealSample{at: time.Now()}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return s, false
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return s, false
		}
		s.total += n
		if i == 7 {
			s.steal = n
		}
	}
	return s, true
}

// sampleSteal samples the host's steal every stealInterval until stop is
// closed, then once more, and returns the samples on the channel.
func sampleSteal(stop <-chan struct{}) <-chan []stealSample {
	out := make(chan []stealSample, 1)
	go func() {
		var ss []stealSample
		take := func() {
			if s, ok := readSteal(); ok {
				ss = append(ss, s)
			}
		}
		take()
		t := time.NewTicker(stealInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				take()
			case <-stop:
				take()
				out <- ss
				return
			}
		}
	}()
	return out
}

// stats summarizes a window's samples. p50, p90 and rate (200 responses
// per second) cover the requests of the quiet intervals: each request
// belongs to the interval its midpoint falls in. all50 and all90 are over
// the whole window; steal and quietSteal are the shares of the host's CPU
// time stolen over the window and over the quiet intervals.
type stats struct {
	attempted, failed, ok int
	p50, p90              time.Duration
	rate                  float64
	all50, all90          time.Duration
	quiet, intervals      int // quiet intervals and all intervals
	quietN                int // requests in the quiet intervals
	steal, quietSteal     float64
	firstErr              error
}

func (win *window) stats() stats {
	var st stats
	lat := make([]time.Duration, 0, len(win.samples))
	for _, s := range win.samples {
		st.attempted++
		lat = append(lat, s.done.Sub(s.start))
		if s.err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("request %d: %w", s.idx, s.err)
			}
			continue
		}
		st.ok++
	}
	st.all50 = quantile(lat, 0.5)
	st.all90 = quantile(lat, 0.9)

	// Intervals between consecutive steal samples, quietest first.
	type interval struct {
		from, to   time.Time
		frac       float64
		lat        []time.Duration
		ok         int
		steal, all uint64
	}
	var ivs []*interval
	ss := win.steal
	for i := 1; i < len(ss); i++ {
		iv := &interval{from: ss[i-1].at, to: ss[i].at,
			steal: ss[i].steal - ss[i-1].steal, all: ss[i].total - ss[i-1].total}
		iv.frac = ratio(float64(iv.steal), float64(iv.all))
		ivs = append(ivs, iv)
	}
	for _, s := range win.samples {
		mid := s.start.Add(s.done.Sub(s.start) / 2)
		k := sort.Search(len(ivs), func(k int) bool { return ivs[k].to.After(mid) })
		if k == len(ivs) || mid.Before(ivs[k].from) {
			continue
		}
		ivs[k].lat = append(ivs[k].lat, s.done.Sub(s.start))
		if s.err == nil {
			ivs[k].ok++
		}
	}
	var steal, all uint64
	for _, iv := range ivs {
		steal += iv.steal
		all += iv.all
	}
	st.steal = ratio(float64(steal), float64(all))
	st.intervals = len(ivs)
	sort.SliceStable(ivs, func(i, j int) bool { return ivs[i].frac < ivs[j].frac })

	var quiet []time.Duration
	var ok int
	var span time.Duration
	steal, all = 0, 0
	for i, iv := range ivs {
		// Past the quiet share and minQuiet, stop at the first interval
		// more stolen than the last one taken: intervals that tie
		// (often at zero steal) are all in or all out.
		if float64(st.quiet) >= quietShare*float64(len(ivs)) && len(quiet) >= minQuiet && iv.frac > ivs[i-1].frac {
			break
		}
		st.quiet++
		quiet = append(quiet, iv.lat...)
		ok += iv.ok
		span += iv.to.Sub(iv.from)
		steal += iv.steal
		all += iv.all
	}
	if len(quiet) == 0 {
		// No steal samples (no /proc/stat): the whole window.
		quiet, ok, span = lat, st.ok, win.end.Sub(win.begin)
	}
	st.quietN = len(quiet)
	st.quietSteal = ratio(float64(steal), float64(all))
	st.p50 = quantile(quiet, 0.5)
	st.p90 = quantile(quiet, 0.9)
	st.rate = ratio(float64(ok), span.Seconds())
	return st
}

// quantile returns the q-quantile of ds (nearest rank).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.5) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}
