package serve

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"scaltool/internal/obs"
	"scaltool/internal/runcache"
)

const specDoc = `{"procs":8,"program":{"name":"stencil","arrays":[{"name":"u","elems":16384},{"name":"v","elems":16384}],` +
	`"regions":[{"name":"sweep","ops":[{"kind":"read","array":"u","instr_per":4,"halo_elems":16},{"kind":"write","array":"v","instr_per":2}]},` +
	`{"name":"relax","ops":[{"kind":"read","array":"v","instr_per":3},{"kind":"compute","instr":4000}]}]}}`

// memoDocs are one built-in analyze document, one ProgramSpec document and
// one diagnose document.
var memoDocs = []struct{ route, body string }{
	{"/v1/analyze", `{"app":"swim","procs":8}`},
	{"/v1/analyze", specDoc},
	{"/v1/diagnose", `{"app":"hydro2d","procs":4}`},
}

func post(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// builds totals scaltool_program_builds_total over every stage.
func builds(mt *obs.Metrics) uint64 {
	var n uint64
	for _, stage := range []string{"admission", "campaign", "diagnose", "routing"} {
		n += mt.Counter("scaltool_program_builds_total", "", "stage", stage).Value()
	}
	return n
}

// TestWarmRequestBuildsNothing is "a hit is one lookup" end to end: once a
// document has been answered, answering it again builds no program and
// computes no content key — for a built-in analysis, a user program and a
// diagnosis alike — and returns the same bytes.
func TestWarmRequestBuildsNothing(t *testing.T) {
	_, ts, mt := newTestServer(t, Options{Workers: 2, Cache: runcache.New(runcache.Options{})})
	first := make([][]byte, len(memoDocs))
	for i, d := range memoDocs {
		first[i] = post(t, ts.URL+d.route, d.body)
	}
	if builds(mt) == 0 {
		t.Fatal("cold requests counted no builds")
	}
	for i, d := range memoDocs {
		b0, k0, s0 := builds(mt), runcache.KeysComputed(), simRuns(mt)
		again := post(t, ts.URL+d.route, d.body)
		if got := builds(mt) - b0; got != 0 {
			t.Errorf("%s %s: repeat built %d programs", d.route, d.body[:20], got)
		}
		if got := runcache.KeysComputed() - k0; got != 0 {
			t.Errorf("%s %s: repeat computed %d content keys", d.route, d.body[:20], got)
		}
		if got := simRuns(mt) - s0; got != 0 {
			t.Errorf("%s %s: repeat simulated %d runs", d.route, d.body[:20], got)
		}
		if !bytes.Equal(again, first[i]) {
			t.Errorf("%s %s: repeat body differs", d.route, d.body[:20])
		}
	}
	if hits := mt.Counter("scaltool_recipe_memo_total", "", "result", "hit").Value(); hits == 0 {
		t.Error("no recipe memo hits counted")
	}
}

// TestMemoResponsesMatchMemoless: a server without a recipe memo answers
// every document with the same bytes as one with it, cold and warm.
func TestMemoResponsesMatchMemoless(t *testing.T) {
	_, memo, _ := newTestServer(t, Options{Workers: 2, Cache: runcache.New(runcache.Options{})})
	bare, plain, _ := newTestServer(t, Options{Workers: 2, Cache: runcache.New(runcache.Options{})})
	bare.recipes = nil
	for pass := 0; pass < 2; pass++ {
		for _, d := range memoDocs {
			if a, b := post(t, memo.URL+d.route, d.body), post(t, plain.URL+d.route, d.body); !bytes.Equal(a, b) {
				t.Fatalf("pass %d %s %s: memo and memo-less bodies differ", pass, d.route, d.body[:20])
			}
		}
	}
}

// TestEvictedRequestRebuildsLazily: with a run cache too small to hold a
// campaign, a repeated document takes every key from the memo, rebuilds the
// programs only to re-simulate them, and returns the same bytes.
func TestEvictedRequestRebuildsLazily(t *testing.T) {
	_, ts, mt := newTestServer(t, Options{Workers: 2, Cache: runcache.New(runcache.Options{MaxBytes: 64 << 10})})
	doc := memoDocs[0]
	first := post(t, ts.URL+doc.route, doc.body)
	s0, k0 := simRuns(mt), runcache.KeysComputed()
	adm := mt.Counter("scaltool_program_builds_total", "", "stage", "admission").Value()
	camp := mt.Counter("scaltool_program_builds_total", "", "stage", "campaign").Value()
	again := post(t, ts.URL+doc.route, doc.body)
	if !bytes.Equal(again, first) {
		t.Fatal("re-simulated body differs")
	}
	sims := simRuns(mt) - s0
	if sims == 0 {
		t.Fatal("the repeat simulated nothing; the cache held the campaign")
	}
	if got := mt.Counter("scaltool_program_builds_total", "", "stage", "campaign").Value() - camp; got != sims {
		t.Fatalf("the repeat re-simulated %d runs but built %d programs", sims, got)
	}
	if got := mt.Counter("scaltool_program_builds_total", "", "stage", "admission").Value(); got != adm {
		t.Fatalf("admission built %d programs for a memoized document", got-adm)
	}
	if got := runcache.KeysComputed() - k0; got != 0 {
		t.Fatalf("the repeat computed %d content keys", got)
	}
}
