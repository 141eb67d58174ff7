package emigre

import (
	"context"
	"slices"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
	"github.com/why-not-xai/emigre/internal/pprcache"
	"github.com/why-not-xai/emigre/internal/rec"
)

// The rival gate is the step of the CHECK path that rejects a
// counterfactual without a push (derivation: DESIGN.md §3.15). Every
// rejected CHECK names the item that won instead of WNI, and the winners
// repeat, so the session keeps them — a short list seeded with rec —
// each with its reverse column PPR(·,t), plus PPR(·,u). A counterfactual
// only rewrites row u; splitting walks at their first return to u gives,
// for the new row w′,
//
//	π′(WNI) − π′(t) = (1−α)/D′ · m_t ,  D′ ∈ [α, 1]
//	m_t = Σ_x w′_x · [(PPR(x,WNI) − PPR(x,t)) − F(x)·(PPR(u,WNI) − PPR(u,t))]
//	F(x) = PPR(x,u)/PPR(u,u)
//
// exactly. When TargetRank rivals lead by more than every estimate
// involved can be wrong, the cold check would reject too, so the gate
// rejects and spends the CHECK like it would.

// maxRivals bounds the learned list: a session pays at most this many
// reverse pushes however many distinct winners its stream names.
const maxRivals = 16

// rival is one learned winner.
type rival struct {
	node hin.NodeID
	col  ppr.Vector // PPR(·, node), reverse-push estimates
	// fwdErr bounds |π′(u,node) − est(node)| for any forward estimate
	// drained to ε over a row-u counterfactual: the push invariant leaves
	// ε·Σ_x PPR′(x,node), and the first-return split makes that sum
	// Σ_x PPR(x,node) + (π′ − π)(u,node)·Σ_x F(x), with π′ ≤ 1−α and
	// Σ_x F(x) ≤ Σ_x PPR(x,u)/α; both column sums are read off the
	// snapshot's bound C (rec.ColumnSums).
	fwdErr float64
}

// rivals is what a session has learned. Verdicts do not depend on when
// a rival is learned, only how many rejections end at the gate instead
// of a cold push.
type rivals struct {
	toU    ppr.Vector // PPR(·, u)
	wniErr float64    // fwdErr of the Why-Not item
	list   []rival
}

func (rv *rivals) has(t hin.NodeID) bool {
	return slices.ContainsFunc(rv.list, func(r rival) bool { return r.node == t })
}

// gated reports whether TargetRank learned rivals that are still
// candidates of the counterfactual r2 provably outrank WNI on it. A
// session that learns nothing (see learn), an empty row, a row that
// reaches u itself and any gap inside the error margin answer false: on
// to the cold push. It does not allocate.
func (s *session) gated(r2 *rec.Recommender) bool {
	rv := s.gate
	k := s.ex.opts.TargetRank
	if rv == nil || len(rv.list) < k {
		return false
	}
	u, flat := s.q.User, r2.Flat()
	row, total := flat.OutSlice(u), flat.OutWeightSum(u)
	if len(row) == 0 || total <= 0 {
		return false
	}
	p := s.ex.r.Config().PPR
	// Every reverse-push entry satisfies P ≤ PPR ≤ P + ε, PPR(u,u) ≥ α
	// and F ≤ 1: the two column differences are each off by at most ε
	// and F by at most ε/α, against a difference of at most 1.
	colErr := p.Epsilon * (2 + 1/p.Alpha)
	ahead := 0
	for i := range rv.list {
		t := &rv.list[i]
		m, candidate := rivalMargin(row, total, u, t.node, s.toWNI, t.col, rv.toU)
		// D′ ≤ 1, so (1−α)·m_t bounds the score gap from above.
		if candidate && (1-p.Alpha)*(m+colErr) < -(t.fwdErr+rv.wniErr) {
			if ahead++; ahead >= k {
				return true
			}
		}
	}
	return false
}

// rivalMargin evaluates m_t for rival t on u's new row (weights
// row/total) from the columns PPR(·,WNI), PPR(·,t) and PPR(·,u);
// candidate is false when the row reaches t (no longer recommendable) or u.
func rivalMargin(row []hin.HalfEdge, total float64, u, t hin.NodeID, toWNI, toT, toU ppr.Vector) (m float64, candidate bool) {
	gapU := (toWNI[u] - toT[u]) / toU[u]
	candidate = true
	for _, h := range row {
		if h.Node == u || h.Node == t {
			candidate = false
		}
		m += h.Weight * ((toWNI[h.Node] - toT[h.Node]) - toU[h.Node]*gapU)
	}
	return m / total, candidate
}

// learn remembers the winner of a rejected CHECK. The first rejection
// also fetches PPR(·,u) and seeds the list with rec, whose column the
// session already holds. This is the one place the gate is switched off:
// under the test seam, on group queries, whose accept set the pairwise
// identity does not cover, and over a recommender without column sums
// (a patch of a patch), nothing is learned and gated never fires. A
// learn cut short by its context changes nothing. A learned winner's
// column also sharpens the certificate of later cold CHECKs.
func (s *session) learn(ctx context.Context, winner hin.NodeID) error {
	rv := s.gate
	off := s.ex.noGate || s.accept != nil
	if off || winner == hin.InvalidNode || (rv != nil && (rv.has(winner) || len(rv.list) >= maxRivals)) {
		return nil
	}
	sums := s.ex.r.ColumnSums()
	if sums == nil {
		return nil
	}
	p := s.ex.r.Config().PPR
	fwdErr := func(t hin.NodeID) float64 {
		return p.Epsilon * (sums[t] + (1-p.Alpha)/p.Alpha*sums[s.q.User])
	}
	// One graph pass fetches what the gate lacks: PPR(·,u) on the first
	// rejection, and the winner's column unless it is already held.
	var need []hin.NodeID
	if rv == nil {
		need = append(need, s.q.User)
	}
	col := s.heldColumn(ctx, winner)
	if col == nil {
		need = append(need, winner)
	}
	cols, err := s.gateColumns(ctx, need)
	if err != nil {
		return err
	}
	if rv == nil {
		rv = &rivals{toU: cols[0], wniErr: fwdErr(s.q.WNI)}
		rv.list = []rival{{node: s.rec, col: s.toRec, fwdErr: fwdErr(s.rec)}}
		s.gate = rv
	}
	if col == nil {
		col = cols[len(cols)-1]
	}
	if !rv.has(winner) {
		rv.list = append(rv.list, rival{node: winner, col: col, fwdErr: fwdErr(winner)})
		s.held = append(s.held, rec.Held{Node: winner, Col: col})
	}
	return nil
}

// heldColumn returns PPR(·,t) when it costs no push, else nil: rec's is
// the session's own, and Alg. 5's targets — the base top-10, where most
// Remove rivals come from — sit in the vector cache. That lookup is
// read-only: a miss computes and inserts nothing.
func (s *session) heldColumn(ctx context.Context, t hin.NodeID) (col ppr.Vector) {
	if t == s.rec {
		return s.toRec
	}
	if k, ok := pprcache.ReverseKey(s.view, s.ex.rev, t); ok && s.ex.cache != nil {
		col, _ = s.ex.cache.Get(ctx, k)
	}
	return col
}

// gateColumns computes PPR(·,t) for the gate straight off the engine,
// one blocked drain for all of ts: routed through the vector cache its
// columns saved no CPU and cost whynot-remove 18 % RSS (ISSUE 23);
// uncached they die with the session.
func (s *session) gateColumns(ctx context.Context, ts []hin.NodeID) ([]ppr.Vector, error) {
	return s.ex.rev.ToTargets(ctx, s.view, ts)
}
