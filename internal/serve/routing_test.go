package serve

import (
	"strings"
	"testing"

	"scaltool/internal/admission"
	"scaltool/internal/recipe"
	"scaltool/internal/runcache"
)

// TestRoutingKey pins the placement contract: documents that normalize to
// the same analysis share a key (cache affinity survives omitted defaults),
// different analyses get different keys, and program specs / unresolvable
// documents fall back to a stable document digest without ever building the
// program.
func TestRoutingKey(t *testing.T) {
	base := RoutingKey(nil, &Request{App: "swim", Procs: 4})

	// Omitted defaults normalize: machine "" is "scaled".
	if got := RoutingKey(nil, &Request{App: "swim", Procs: 4, Machine: "scaled"}); got != base {
		t.Fatalf("explicit default machine changed the key: %q vs %q", got, base)
	}
	// Different workload, procs, or machine → different key.
	for name, req := range map[string]*Request{
		"app":     {App: "hydro2d", Procs: 4},
		"procs":   {App: "swim", Procs: 8},
		"machine": {App: "swim", Procs: 4, Machine: "origin"},
		"s0":      {App: "swim", Procs: 4, S0: 1 << 24},
	} {
		if got := RoutingKey(nil, req); got == base {
			t.Fatalf("%s change did not change the routing key", name)
		}
	}
	// The builtin-app key is the raw runcache content address (64 hex), not
	// the document-digest fallback.
	if strings.HasPrefix(base, "doc:") || len(base) != 64 {
		t.Fatalf("builtin app routed by document digest, want content address: %q", base)
	}

	// Omitted procs defaults to 32 — the same key as an explicit 32.
	if RoutingKey(nil, &Request{App: "swim"}) != RoutingKey(nil, &Request{App: "swim", Procs: 32}) {
		t.Fatal("omitted procs and explicit 32 routed differently")
	}

	// Unknown apps and bad shapes fall back to the document digest, totally.
	for _, req := range []*Request{
		{App: "not-an-app", Procs: 4},
		{App: "swim", Procs: 3},
		{App: "swim", Procs: 4, Machine: "cray"},
		{},
	} {
		got := RoutingKey(nil, req)
		if !strings.HasPrefix(got, "doc:") {
			t.Fatalf("unresolvable doc %+v got a content key: %q", req, got)
		}
		if again := RoutingKey(nil, req); again != got {
			t.Fatalf("fallback key unstable: %q vs %q", got, again)
		}
	}

	// A user program spec routes by digest — the router must not build it.
	spec := &admission.ProgramSpec{Name: "user-prog"}
	k1 := RoutingKey(nil, &Request{Program: spec, Procs: 4})
	if !strings.HasPrefix(k1, "doc:") {
		t.Fatalf("program spec got a content key: %q", k1)
	}
	if k2 := RoutingKey(nil, &Request{Program: spec, Procs: 8}); k2 == k1 {
		t.Fatal("different program-spec procs shared a routing key")
	}

	// RoutingKey never mutates the caller's document.
	req := &Request{App: "swim"}
	_ = RoutingKey(nil, req)
	if req.Procs != 0 || req.Machine != "" {
		t.Fatalf("RoutingKey mutated its argument: %+v", req)
	}
}

// TestRoutingKeyPinned pins placement keys recorded before routing went
// through the recipe memo: memoized or not, first time or repeated, a
// document routes to the same key string, and a repeat hashes nothing.
func TestRoutingKeyPinned(t *testing.T) {
	memo := recipe.New(nil)
	for _, c := range []struct {
		req  Request
		want string
	}{
		{Request{App: "swim", Procs: 8}, "8e8f1f3a4ad3d187736304f0331fce8631df179b348e8324010200e94cae3399"},
		{Request{App: "hydro2d", Procs: 16, Machine: "origin"}, "b7cc1530d556598f44e897ebac267d24fe1c2aea0cc9d7a12f27bcbad325a3de"},
		{Request{App: "spmv", Procs: 4, S0: 1 << 20}, "de86ede94650d9a75b48907f880a9ba6281c18e4d41d52a9c09dcea35ff32f3a"},
	} {
		if got := RoutingKey(nil, &c.req); got != c.want {
			t.Errorf("RoutingKey(%+v) = %s; want %s", c.req, got, c.want)
		}
		if got := RoutingKey(memo, &c.req); got != c.want {
			t.Errorf("RoutingKey(memo, %+v) = %s; want %s", c.req, got, c.want)
		}
		keys := runcache.KeysComputed()
		if got := RoutingKey(memo, &c.req); got != c.want {
			t.Errorf("repeated RoutingKey(memo, %+v) = %s; want %s", c.req, got, c.want)
		}
		if n := runcache.KeysComputed() - keys; n != 0 {
			t.Errorf("repeated RoutingKey(memo, %+v) computed %d keys", c.req, n)
		}
	}
}
