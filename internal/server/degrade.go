package server

import (
	"context"
	"errors"
	"time"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/internal/fault"
)

// Failpoint sites on the server's own seams. decode and write simulate
// handler I/O failures; the health markers are never Hit — /readyz
// consults their armed state so an orchestrator can be told "stop
// routing here" before errors surface (arming server.health.cache
// models a cache declared unhealthy by an external check, and likewise
// for the graph).
var (
	decodeSite      = fault.Register("server.explain.decode")
	writeSite       = fault.Register("server.response.write")
	healthCacheSite = fault.Register("server.health.cache")
	healthGraphSite = fault.Register("server.health.graph")
)

// searchFraction is the share of a request's deadline budget the search
// may spend when a squeezed search answers with its partial: the last
// few percent are kept for rendering that answer, so it reaches the
// caller before the caller's own deadline does.
const searchFraction = 0.96

// partialLevel is the wire name of a partial answer's degradation, in
// the "degraded_level" field, the X-Emigre-Degraded header and the
// level label of emigre_degraded_responses_total.
const partialLevel = "partial"

// explainFn is one explanation request bound to everything but the
// context.
type explainFn func(ctx context.Context) (*emigre.Explanation, error)

// partialOf extracts the unverified partial explanation carried by a
// *CanceledError, nil when there is none (or none with edges).
func partialOf(err error) *emigre.Explanation {
	var ce *emigre.CanceledError
	if errors.As(err, &ce) && ce.Partial != nil && len(ce.Partial.Edges) > 0 {
		return ce.Partial
	}
	return nil
}

// runExplain runs the one search an explanation request gets.
//
// Without a deadline, or with DisableDegraded, the search runs under the
// request's context and its result is the answer. With a deadline the
// search gets searchFraction of the budget, and if it runs out of time
// (as opposed to a definitive verdict, a client disconnect or a hard
// failure) the answer is the best unverified partial explanation the
// interrupted search carried in its *CanceledError, marked Partial; a
// squeezed search without one still fails with its timeout. When the
// budget suffices the response is byte-identical to that of a server
// with DisableDegraded.
//
// There is no second, cheaper search: a restart with a smaller CHECK
// budget, or one barred from cold cache fills, walks a prefix of the
// candidate stream the first search was already walking, in less time
// (DESIGN.md §3.12).
func (s *Server) runExplain(ctx context.Context, run explainFn) (*emigre.Explanation, error) {
	deadline, hasDeadline := ctx.Deadline()
	if !hasDeadline || !s.servePartial {
		return run(ctx)
	}
	sctx, cancel := context.WithTimeout(ctx, time.Duration(searchFraction*float64(time.Until(deadline))))
	defer cancel()
	expl, err := run(sctx)
	if p := partialOf(err); p != nil && errors.Is(err, context.DeadlineExceeded) {
		return p, nil
	}
	return expl, err
}
