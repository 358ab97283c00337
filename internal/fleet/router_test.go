package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scaltool/internal/runcache"
	"scaltool/internal/serve"
)

func analyzeDoc(app string, procs int) []byte {
	return []byte(fmt.Sprintf(`{"app":%q,"procs":%d}`, app, procs))
}

// postRouter posts a document at a router handler and returns the response.
func postRouter(t *testing.T, h http.Handler, path string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRankStability pins the rendezvous properties routing depends on:
// determinism, and minimal disruption when a replica leaves.
func TestRankStability(t *testing.T) {
	mk := func(names ...string) []*member {
		ms := make([]*member, 0, len(names))
		for _, n := range names {
			m := &member{name: n}
			m.url.Store("http://x")
			m.up.Store(true)
			ms = append(ms, m)
		}
		return ms
	}
	members := mk("replica-0", "replica-1", "replica-2")
	keys := []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"}

	// Deterministic: the same key always ranks the same order.
	for _, k := range keys {
		a, b := rank(members, k), rank(members, k)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rank(%q) not deterministic", k)
			}
		}
	}
	// Spread: with 8 keys and 3 replicas, at least two replicas get a top
	// choice (an all-on-one hash would defeat the point).
	tops := map[string]bool{}
	for _, k := range keys {
		tops[rank(members, k)[0].name] = true
	}
	if len(tops) < 2 {
		t.Fatalf("all keys ranked the same replica first: %v", tops)
	}
	// Minimal disruption: dropping replica-2 must not change the top
	// choice of any key replica-2 did not own.
	survivors := members[:2]
	for _, k := range keys {
		before := rank(members, k)[0]
		after := rank(survivors, k)[0]
		if before.name != "replica-2" && after != before {
			t.Fatalf("key %q moved from %s to %s when an unrelated replica left", k, before.name, after.name)
		}
	}
	// A down replica ranks behind every up replica but stays in the list.
	members[0].up.Store(false)
	for _, k := range keys {
		order := rank(members, k)
		if order[len(order)-1].name != "replica-0" {
			t.Fatalf("down replica not ranked last for %q", k)
		}
	}
}

// TestRouterAffinityAndByteIdentity runs two real replicas behind the
// router: every repetition of one document must land on the same replica
// and return byte-identical bodies.
func TestRouterAffinityAndByteIdentity(t *testing.T) {
	var reps []*LocalReplica
	var replicas []Replica
	for i := 0; i < 2; i++ {
		rep, err := StartLocal(serve.Options{Workers: 2}, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rep.Kill)
		reps = append(reps, rep)
		replicas = append(replicas, Replica{Name: SlotName(i), URL: rep.URL()})
	}
	rt := NewRouter(Options{Replicas: replicas})

	doc := analyzeDoc("swim", 4)
	var firstBody []byte
	var firstReplica string
	for i := 0; i < 3; i++ {
		resp, body := postRouter(t, rt.Handler(), "/v1/analyze", doc, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, resp.StatusCode, body)
		}
		rep := resp.Header.Get("X-Fleet-Replica")
		if i == 0 {
			firstBody, firstReplica = body, rep
			if rep == "" {
				t.Fatal("no X-Fleet-Replica header")
			}
			continue
		}
		if rep != firstReplica {
			t.Fatalf("request %d routed to %s, first went to %s", i, rep, firstReplica)
		}
		if !bytes.Equal(body, firstBody) {
			t.Fatalf("request %d body differs from first", i)
		}
	}

	// The replica's own error contract passes through verbatim: an unknown
	// app is a deterministic 422, never retried into a different answer.
	resp, body := postRouter(t, rt.Handler(), "/v1/analyze", analyzeDoc("nosuchapp", 2), nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown app: %d: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["code"] == "" {
		t.Fatalf("error body not the uniform shape: %s", body)
	}
}

// stubBackend is a scriptable replica for failover tests.
type stubBackend struct {
	ts   *httptest.Server
	hits atomic.Int64
	rids chan string
}

func newStubBackend(t *testing.T, status int, body string) *stubBackend {
	sb := &stubBackend{rids: make(chan string, 64)}
	sb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "healthz") {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		sb.hits.Add(1)
		select {
		case sb.rids <- r.Header.Get("X-Request-Id"):
		default:
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintln(w, body)
	}))
	t.Cleanup(sb.ts.Close)
	return sb
}

// TestRouterFailoverPreservesRequestID kills the preferred replica and
// asserts (a) the request succeeds on the backup, (b) the client-supplied
// X-Request-Id reached the SECOND replica — the trace identity survives
// failover end to end.
func TestRouterFailoverPreservesRequestID(t *testing.T) {
	good := newStubBackend(t, http.StatusOK, `{"ok":true}`)
	dead := newStubBackend(t, http.StatusOK, `{"ok":true}`)
	dead.ts.Close() // connection refused from the first byte

	doc := analyzeDoc("swim", 2)
	// Name the replicas so the DEAD one is the rendezvous first choice for
	// this document: try both assignments and keep the one where the dead
	// backend wins the hash.
	key := routingKeyFor(nil, doc)
	names := []string{SlotName(0), SlotName(1)}
	deadName, goodName := names[0], names[1]
	if rendezvousScore(names[1], key) > rendezvousScore(names[0], key) {
		deadName, goodName = names[1], names[0]
	}
	rt := NewRouter(Options{
		Replicas:         []Replica{{Name: deadName, URL: dead.ts.URL}, {Name: goodName, URL: good.ts.URL}},
		FailureThreshold: 3,
	})

	resp, body := postRouter(t, rt.Handler(), "/v1/analyze", doc, map[string]string{"X-Request-Id": "trace-fleet-42"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fleet-Replica"); got != goodName {
		t.Fatalf("served by %q, want the backup %q", got, goodName)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-fleet-42" {
		t.Fatalf("response X-Request-Id = %q", got)
	}
	select {
	case rid := <-good.rids:
		if rid != "trace-fleet-42" {
			t.Fatalf("backup replica saw X-Request-Id %q, want trace-fleet-42", rid)
		}
	default:
		t.Fatal("backup replica never saw the request")
	}
}

// TestRouterRefusalFallsOverThenSurfaces: a 429 from the preferred replica
// fails over; if EVERY replica refuses, the client sees the retryable
// refusal (with its Retry-After), never a synthetic hard error.
func TestRouterRefusalFallsOverThenSurfaces(t *testing.T) {
	busy1 := newStubBackend(t, http.StatusTooManyRequests, `{"error":"overloaded","code":"overloaded"}`)
	busy2 := newStubBackend(t, http.StatusTooManyRequests, `{"error":"overloaded","code":"overloaded"}`)
	rt := NewRouter(Options{Replicas: []Replica{
		{Name: SlotName(0), URL: busy1.ts.URL},
		{Name: SlotName(1), URL: busy2.ts.URL},
	}})
	resp, body := postRouter(t, rt.Handler(), "/v1/analyze", analyzeDoc("swim", 2), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all-refusing fleet returned %d, want 429: %s", resp.StatusCode, body)
	}
	if busy1.hits.Load() != 1 || busy2.hits.Load() != 1 {
		t.Fatalf("attempts = (%d, %d), want one per replica", busy1.hits.Load(), busy2.hits.Load())
	}

	// Mixed fleet: refusal from the first, success from the second.
	ok := newStubBackend(t, http.StatusOK, `{"ok":true}`)
	doc := analyzeDoc("swim", 2)
	key := routingKeyFor(nil, doc)
	busyName, okName := SlotName(0), SlotName(1)
	if rendezvousScore(okName, key) > rendezvousScore(busyName, key) {
		busyName, okName = okName, busyName
	}
	rt2 := NewRouter(Options{Replicas: []Replica{
		{Name: busyName, URL: busy1.ts.URL},
		{Name: okName, URL: ok.ts.URL},
	}})
	resp, body = postRouter(t, rt2.Handler(), "/v1/analyze", doc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed fleet returned %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestRouterHedging: when the preferred replica sits on a request past
// HedgeAfter, a hedge races the backup and the client gets the fast answer.
func TestRouterHedging(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "healthz") {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		fmt.Fprintln(w, `{"slow":true}`)
	}))
	defer slow.Close()
	defer close(release)
	fast := newStubBackend(t, http.StatusOK, `{"fast":true}`)

	doc := analyzeDoc("swim", 2)
	key := routingKeyFor(nil, doc)
	slowName, fastName := SlotName(0), SlotName(1)
	if rendezvousScore(fastName, key) > rendezvousScore(slowName, key) {
		slowName, fastName = fastName, slowName
	}
	rt := NewRouter(Options{
		Replicas: []Replica{
			{Name: slowName, URL: slow.URL},
			{Name: fastName, URL: fast.ts.URL},
		},
		HedgeAfter: 30 * time.Millisecond,
	})
	start := time.Now()
	resp, body := postRouter(t, rt.Handler(), "/v1/analyze", doc, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fleet-Replica"); got != fastName {
		t.Fatalf("served by %q, want the hedge target %q", got, fastName)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged request took %v — hedge never fired", elapsed)
	}
}

// TestRouterDrainAndGates pins the router's own edge contract: drain 429,
// method 405, oversized body 413, and the no-replica 503.
func TestRouterDrainAndGates(t *testing.T) {
	rep := newStubBackend(t, http.StatusOK, `{"ok":true}`)
	rt := NewRouter(Options{Replicas: []Replica{{Name: SlotName(0), URL: rep.ts.URL}}})

	req := httptest.NewRequest(http.MethodGet, "/v1/analyze", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET returned %d, want 405", rec.Code)
	}

	resp, body := postRouter(t, rt.Handler(), "/v1/analyze", bytes.Repeat([]byte("x"), 1<<20+1), nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d: %s", resp.StatusCode, body)
	}

	// Drain: healthz flips, new work refused retryably, Drain returns.
	ctx, cancel := testContext(t)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body = postRouter(t, rt.Handler(), "/v1/analyze", analyzeDoc("swim", 2), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("draining router returned %d: %s", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || e["code"] != "draining" {
		t.Fatalf("drain error body: %s", body)
	}
	hreq := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	hrec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", hrec.Code)
	}

	// No replicas at all → a retryable 503.
	empty := NewRouter(Options{})
	resp, body = postRouter(t, empty.Handler(), "/v1/analyze", analyzeDoc("swim", 2), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet returned %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &e); err != nil || e["code"] != "no_replica" {
		t.Fatalf("no-replica body: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no-replica response missing Retry-After")
	}
}

// TestRouterPlacementKeyMemoized: the router resolves placement keys
// through its own recipe memo — the same key strings as an unmemoized
// resolution (one pinned), and a repeated document hashes nothing.
func TestRouterPlacementKeyMemoized(t *testing.T) {
	rt := NewRouter(Options{})
	doc := analyzeDoc("swim", 8)
	const want = "8e8f1f3a4ad3d187736304f0331fce8631df179b348e8324010200e94cae3399"
	if got := routingKeyFor(rt.recipes, doc); got != want {
		t.Fatalf("router key %s; want %s", got, want)
	}
	keys := runcache.KeysComputed()
	if got := routingKeyFor(rt.recipes, doc); got != want {
		t.Fatalf("repeated router key %s; want %s", got, want)
	}
	if n := runcache.KeysComputed() - keys; n != 0 {
		t.Fatalf("a repeated document computed %d content keys", n)
	}
	for _, d := range [][]byte{analyzeDoc("hydro2d", 16), analyzeDoc("nosuchapp", 4), []byte(`{"procs":`),
		[]byte(`{"program":{"name":"p","arrays":[{"name":"a","elems":64}],"regions":[{"name":"r","ops":[{"kind":"read","array":"a"}]}]}}`)} {
		if a, b := routingKeyFor(rt.recipes, d), routingKeyFor(nil, d); a != b {
			t.Fatalf("%s: memoized key %s, unmemoized %s", d, a, b)
		}
	}
}
