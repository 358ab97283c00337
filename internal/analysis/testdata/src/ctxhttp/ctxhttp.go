// Fixture for the ctxhttp analyzer. handleJob is handler-shaped, so it
// and everything it transitively calls is held to the request-context
// rule; orphan() has no handler caller and is exempt.
package ctxhttp

import (
	"context"
	"net/http"
)

type store struct{}

func (s *store) fetch(ctx context.Context, key string) string { return key }

var db store

func handleJob(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background() // want "handleJob creates context.Background"
	_ = db.fetch(ctx, r.URL.Path)

	go rebuildIndex() // want "handleJob launches a goroutine no context reaches"

	// The fixes: propagate r.Context(), and hand it to spawned work.
	_ = db.fetch(r.Context(), r.URL.Path)
	go watch(r.Context())

	helper(r)
}

// helper is not handler-shaped itself but is reachable from handleJob, so
// the same rule applies transitively.
func helper(r *http.Request) {
	ctx := context.TODO() // want "helper creates context.TODO"
	_ = db.fetch(ctx, "k")
}

func rebuildIndex()               {}
func watch(ctx context.Context)   {}
func process(ctx context.Context) {}

// orphan is unreachable from any handler: background context is fine in
// main-path setup code.
func orphan() {
	process(context.Background())
	go rebuildIndex()
}

func handleSuppressed(w http.ResponseWriter, r *http.Request) {
	go rebuildIndex() //scalvet:ignore index rebuild must outlive the request by design
	_ = db
	go rebuildIndex() /* want "launches a goroutine no context reaches" "needs a reason" */ //scalvet:ignore
}

// renderJob is reached only through a function value, which the call graph
// does not follow; its //scalvet:hot mark makes it a serving-path root.
//
//scalvet:hot
func renderJob(ctx context.Context) {
	process(context.Background()) // want "renderJob creates context.Background"
}
