package rec

import (
	"context"
	"fmt"
	"sync"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/ppr"
)

// colSums is ppr.ColumnSums of one unpatched snapshot, built on first
// use and shared by every copy scoring over that snapshot or over a
// one-row patch of it.
type colSums struct {
	once sync.Once
	flat *hin.CSR
	c    ppr.Vector
}

// ColumnSums returns C with C(i) ≥ Σ_x PPR(x,i) for every node i of the
// unpatched snapshot the recommender's certificate reads — Flat(), or
// on a WithUserPatch recommender its parent's — computed on the first
// call and shared by every copy. It is nil on a patch of a patched
// recommender. Safe for concurrent use once Flat() is built.
func (r *Recommender) ColumnSums() ppr.Vector {
	r.Flat()
	s := r.sums
	if s == nil {
		return nil
	}
	s.once.Do(func() { s.c = ppr.ColumnSums(s.flat, r.cfg.PPR) })
	return s.c
}

// Held is a reverse column its caller already holds: Col[x] estimates
// PPR(x, Node) over the snapshot ColumnSums bounds, within
// ppr.Params.ColumnErr (ε) of the exact value on either side (a reverse
// push drained to ε). TopDecided reads it to tighten Node's bound.
type Held struct {
	Node hin.NodeID
	Col  ppr.Vector
}

// TopDecided returns u's first k candidates as a forward push drained to
// ε ranks them — TopNContext's top-1 first, then the rest of its top k —
// from a push over Flat() that stops as soon as both are certain
// (DESIGN.md §3.15, "Certified decision"). Between sweeps every
// candidate i has its estimate p(i) as a lower bound and an upper bound
// U(i) on its exact score; the push stops once the leading estimate is
// above U of every other candidate and the k-th estimate above U of every
// candidate outside the top k. Cold estimates only grow and never pass
// the exact scores, so the drain would rank the same top-1 and the same
// top k; an exact tie never certifies and drains to ε.
//
// The certificate covers a recommender that is unpatched or patched at u
// (WithUserPatch(v, u)); anything else drains. Held columns, which must
// be over the snapshot ColumnSums bounds, tighten their items' bounds.
//
// A stopped push is not a full-ε vector, so nothing is cached.
func (r *Recommender) TopDecided(ctx context.Context, u hin.NodeID, k int, held []Held) ([]hin.NodeID, error) {
	if k < 1 {
		return nil, fmt.Errorf("rec: top-k size must be at least 1, got %d", k)
	}
	k = min(k, len(r.items))
	var done ppr.StopTest
	if c := r.certificate(u, k, held); c != nil {
		done = c.decided
	}
	res, err := r.engine.RunUntil(ctx, r.Flat(), u, done)
	if err != nil {
		return nil, err
	}
	top := r.selectInto(u, res.Estimates, make([]Scored, 0, k))
	if len(top) == 0 {
		return nil, fmt.Errorf("%w (user %d)", ErrNoCandidates, u)
	}
	nodes := make([]hin.NodeID, len(top))
	for i, sc := range top {
		nodes[i] = sc.Node
	}
	return nodes, nil
}

// certificate is TopDecided's stop test for one push. The drain keeps
// Eq. 3 on the counterfactual, T = PPR′(u,i) = p(i) + Σ_x r(x)·PPR′(x,i),
// and splitting walks at their first visit to u — the one row the patch
// rewrote — gives PPR′(x,i) = PPR(x,i) + F(x)·(T − PPR(u,i)) with
// F(x) = PPR(x,u)/PPR(u,u) ∈ [0, 1] over the snapshot C bounds (the rival
// gate's identity). With κ = r_max·C(u)/α ≥ Σ_x r(x)·F(x) and
// PPR(u,i) ≥ 0 that is
//
//	T ≤ U₀(i) + κ·T,   U₀(i) = p(i) + r_max·C(i),   so   T ≤ U₀(i)/(1 − κ).
//
// A held column sharpens U₀ to p(t) + Σ_x r(x)·(col(x) + ε), ε its
// ColumnErr: col(x) + ε ≥ PPR(x,t).
//
// A candidate whose bound falls below the k-th estimate can never enter
// the top k or hold it back again — estimates only grow, and a bound
// read once stays a bound — so it leaves alive for good, and the later
// tests of a push walk a shrinking list.
type certificate struct {
	alive  []hin.NodeID // candidates still in play, ascending
	sums   []float64    // C(alive[i]), kept in step with alive
	held   []Held
	colErr float64  // ppr.Params.ColumnErr of the held columns
	sumF   float64  // C(u)/α ≥ Σ_x F(x), since PPR(u,u) ≥ α
	floor  float64  // the k-th estimate at the last test
	top    []Scored // the k best estimates, last-ranked at the root (selectInto's heap)
	upper  []Scored // the highest bounds, descending
}

// certificate returns TopDecided's stop test for u's top k, nil when none
// applies: a patch at another node, or no column sums.
func (r *Recommender) certificate(u hin.NodeID, k int, held []Held) *certificate {
	if k < 1 || (r.patch != hin.InvalidNode && r.patch != u) {
		return nil
	}
	sums := r.ColumnSums()
	if u < 0 || int(u) >= len(sums) {
		return nil
	}
	excl := r.exclusions(u, nil)
	alive := make([]hin.NodeID, 0, len(r.items))
	aliveSums := make([]float64, 0, len(r.items))
	for _, id := range r.items {
		for len(excl) > 0 && excl[0] < id {
			excl = excl[1:]
		}
		if len(excl) == 0 || excl[0] != id {
			alive = append(alive, id)
			aliveSums = append(aliveSums, sums[id])
		}
	}
	return &certificate{
		alive:  alive,
		sums:   aliveSums,
		held:   held,
		colErr: r.cfg.PPR.ColumnErr(),
		sumF:   sums[u] / r.cfg.PPR.Alpha,
		floor:  -1,
		top:    make([]Scored, 0, k),
		// The walk in decided gets past an entry only if it is in the top
		// k or holds a column; one more shows where the walk ends.
		upper: make([]Scored, 0, k+len(held)+1),
	}
}

// decided reports whether the estimates p and residuals r of a cold push
// already rank u's top-1 and top k as the drain will. It allocates
// nothing.
func (c *certificate) decided(p, r ppr.Vector) bool {
	var rmax float64
	for _, x := range r {
		if x > rmax {
			rmax = x
		}
	}
	kappa := rmax * c.sumF
	if kappa >= 1 {
		return false
	}
	scale := 1 / (1 - kappa)
	alive, sums, top, upper := c.alive[:0], c.sums[:0], c.top[:0], c.upper[:0]
	for i, id := range c.alive {
		ub := (p[id] + rmax*c.sums[i]) * scale
		if ub < c.floor {
			continue
		}
		alive, sums = append(alive, id), append(sums, c.sums[i])
		if s := (Scored{Node: id, Score: p[id]}); len(top) < cap(top) || before(s, top[0]) {
			top = pushHeap(top, s)
		}
		if len(upper) < cap(upper) || ub > upper[len(upper)-1].Score {
			upper = insertDescending(upper, Scored{Node: id, Score: ub})
		}
	}
	c.alive, c.sums = alive, sums
	if len(top) == 0 {
		return true // no candidate: nothing to rank
	}
	// The heap's root is the k-th estimate, the bar for every candidate
	// outside the top k; the leader's estimate is the bar inside it.
	lead := top[0]
	for _, s := range top[1:] {
		if before(s, lead) {
			lead = s
		}
	}
	c.floor = top[0].Score
	for _, e := range upper {
		if e.Node == lead.Node {
			continue
		}
		if e.Score < c.floor {
			return true // and so is every bound after it
		}
		bar := c.floor
		if hasNode(top, e.Node) {
			bar = lead.Score
		}
		if e.Score < bar {
			continue
		}
		if h := c.heldColumn(e.Node); h == nil || c.heldBound(h, p, r)*scale >= bar {
			return false
		}
	}
	return len(upper) < cap(upper) // every candidate in play was walked
}

func (c *certificate) heldColumn(v hin.NodeID) *Held {
	for i := range c.held {
		if c.held[i].Node == v {
			return &c.held[i]
		}
	}
	return nil
}

// heldBound is U₀ of a held item: its column's residual sum
// Σ_x r(x)·col(x), plus the column's error per unit of residual, in
// place of r_max·C.
func (c *certificate) heldBound(h *Held, p, r ppr.Vector) float64 {
	col := h.Col[:len(r)]
	var dot, rsum float64
	for x, rx := range r {
		dot += rx * col[x]
		rsum += rx
	}
	return p[h.Node] + dot + c.colErr*rsum
}

func hasNode(l []Scored, v hin.NodeID) bool {
	for _, s := range l {
		if s.Node == v {
			return true
		}
	}
	return false
}

// insertDescending adds e to the descending list l, whose capacity bounds
// it: when l is full its last entry makes room.
func insertDescending(l []Scored, e Scored) []Scored {
	i := len(l)
	if i < cap(l) {
		l = append(l, e)
	} else {
		i--
	}
	for ; i > 0 && l[i-1].Score < e.Score; i-- {
		l[i] = l[i-1]
	}
	l[i] = e
	return l
}
