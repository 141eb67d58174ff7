package emigre

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
)

// transitionTable maps each of u's outgoing typed edges to its
// transition probability under the recommender's (β-mixed) view.
type transitionTable map[edgeKey]float64

type edgeKey struct {
	to  hin.NodeID
	typ hin.EdgeTypeID
}

func transitionsOf(view hin.View, u hin.NodeID) transitionTable {
	total := view.OutWeightSum(u)
	t := make(transitionTable)
	if total <= 0 {
		return t
	}
	view.OutEdges(u, func(h hin.HalfEdge) bool {
		t[edgeKey{h.Node, h.Type}] += h.Weight / total
		return true
	})
	return t
}

// defineSearchSpace runs Algorithm 1 (Remove mode) or Algorithm 2 (Add
// mode): it fills s.cands — the paper's contribution-ordered list H —
// and s.tau, the gap estimate between rec and WNI.
//
// Sign convention (see DESIGN.md §3.2): tau is the sum of
// contribution_rmv over the user's allowed existing edges, positive
// while rec dominates WNI; committing a candidate subtracts its
// contribution, and the CHECK step fires once the running tau is ≤ 0.
func (s *session) defineSearchSpace() error {
	u := s.q.User
	allowed := s.ex.opts.AllowedEdgeTypes
	trans := transitionsOf(s.view, u)

	// tau: Σ contribution_rmv over the allowed existing edges (Eq. 5).
	// Both modes start from the same gap estimate (Algorithm 2 lines
	// 4-7 repeat the Algorithm 1 loop).
	s.tau = 0
	var removeCands []candidate
	for _, e := range s.ex.g.OutEdgesOfType(u, allowed) {
		w := trans[edgeKey{e.To, e.Type}]
		c := w * (s.toRec[e.To] - s.toWNI[e.To])
		s.tau += c
		removeCands = append(removeCands, candidate{edge: e, op: Remove, contribution: c})
	}

	switch s.mode {
	case Remove:
		s.cands = removeCands
	case Add:
		s.cands = s.addCandidates()
	case Combined:
		// The future-work extension of §6.4: both search spaces merged.
		// Contributions of the two kinds live on slightly different
		// scales (Eq. 5 carries the transition weight, Eq. 6 does not);
		// the CHECK step corrects any resulting mis-ordering exactly as
		// it does within a single mode.
		s.cands = append(removeCands, s.addCandidates()...)
	case Reweight:
		s.cands = s.reweightCandidates()
	default:
		return fmt.Errorf("emigre: unknown mode %v", s.mode)
	}
	s.stats.SearchSpace = len(s.cands)
	if s.mode == Add {
		s.partition()
		return nil
	}
	sortCandidates(s.cands)
	s.sorted = len(s.cands)
	for s.npos < len(s.cands) && s.cands[s.npos].contribution > 0 {
		s.npos++
	}
	return nil
}

// addCandidates implements the candidate discovery of Algorithm 2: the
// Reverse Local Push run from WNI (already available as s.toWNI)
// surfaces every node x with non-negligible PPR(x, WNI); each such node
// of an allowed target type that the user is not yet connected to
// becomes a hypothetical edge (u, x) with contribution Eq. 6:
//
//	contribution_add(x) = PPR(x, WNI) − PPR(x, rec)
//
// (no W factor: the edge does not exist yet, so it has no weight).
func (s *session) addCandidates() []candidate {
	u := s.q.User
	opts := s.ex.opts
	targetOK := s.targetTypeMask()
	// u's neighbours, sorted: x ascends below, so one cursor skips them.
	var nbrs []hin.NodeID
	s.ex.g.OutEdges(u, func(h hin.HalfEdge) bool {
		nbrs = append(nbrs, h.Node)
		return true
	})
	slices.Sort(nbrs)
	var cands []candidate
	for x, w := range s.toWNI {
		id := hin.NodeID(x)
		for len(nbrs) > 0 && nbrs[0] < id {
			nbrs = nbrs[1:]
		}
		if w <= 0 || id == u || id == s.q.WNI || !targetOK[s.ex.g.NodeType(id)] {
			continue
		}
		if len(nbrs) > 0 && nbrs[0] == id {
			continue // already a neighbour
		}
		cands = append(cands, candidate{
			edge:         hin.Edge{From: u, To: id, Type: opts.AddEdgeType, Weight: opts.AddEdgeWeight},
			op:           Add,
			contribution: w - s.toRec[x],
		})
	}
	return cands
}

// reweightCandidates builds the Reweight search space (the "You should
// have rated book A with 5 stars" extension of §7): every allowed
// existing edge whose weight lies below Options.ReweightTo becomes a
// candidate carrying the counterfactual weight. Raising the weight of
// the edge to n shifts roughly ΔW = (w′−w)/Σw of the user's transition
// mass onto n, so the first-order contribution toward WNI is
//
//	contribution = ΔW · (PPR(n, WNI) − PPR(n, rec))
func (s *session) reweightCandidates() []candidate {
	u := s.q.User
	opts := s.ex.opts
	total := s.ex.g.OutWeightSum(u)
	if total <= 0 {
		return nil
	}
	var cands []candidate
	for _, e := range s.ex.g.OutEdgesOfType(u, opts.AllowedEdgeTypes) {
		if e.Weight >= opts.ReweightTo {
			continue
		}
		delta := (opts.ReweightTo - e.Weight) / total
		newEdge := e
		newEdge.Weight = opts.ReweightTo
		cands = append(cands, candidate{
			edge:         newEdge,
			op:           Reweight,
			transDelta:   delta,
			contribution: delta * (s.toWNI[e.To] - s.toRec[e.To]),
		})
	}
	return cands
}

func (s *session) targetTypeMask() []bool {
	mask := make([]bool, 256)
	types := s.ex.opts.AddTargetTypes
	if len(types) == 0 {
		types = s.ex.r.Config().ItemTypes
	}
	for _, t := range types {
		mask[t] = true
	}
	return mask
}

// candCmp is the search-space order: descending contribution, ties
// broken by (To, Type, op). No two candidates share all four, so it is a
// strict total order: every sort of a search space gives one sequence.
func candCmp(a, b candidate) int {
	if !fmath.Eq(a.contribution, b.contribution) {
		if a.contribution > b.contribution {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.edge.To, b.edge.To); c != 0 {
		return c
	}
	if c := cmp.Compare(a.edge.Type, b.edge.Type); c != 0 {
		return c
	}
	return cmp.Compare(a.op, b.op)
}

// sortCandidates orders cands by candCmp.
func sortCandidates(cands []candidate) { slices.SortFunc(cands, candCmp) }

// partition lays an Add-mode search space out for reading on demand:
// the positive candidates move to the front, and order sorts them only
// as far as a strategy reads — Powerset and Exhaustive take 16,
// Incremental stops at its first accepted prefix — instead of sorting
// every item WNI's column reaches. The best candidate of all leads
// either way (partialExplanation reads s.cands[0]).
func (s *session) partition() {
	for i, c := range s.cands {
		if c.contribution > 0 {
			s.cands[s.npos], s.cands[i] = c, s.cands[s.npos]
			s.npos++
		}
	}
	if s.npos > 0 {
		s.order(1)
	} else {
		selectBest(s.cands, 1, candCmp)
	}
}

// order extends the sorted prefix of the positive candidates to at least
// m entries (all of them when there are fewer): it selects the best of
// the unsorted rest — at least 16, and at least as many as are sorted
// already, so reading one more at a time stays cheap — and sorts them.
func (s *session) order(m int) {
	m = min(m, s.npos)
	if m <= s.sorted {
		return
	}
	rest := s.cands[s.sorted:s.npos]
	n := min(len(rest), max(m-s.sorted, s.sorted, 16))
	selectBest(rest, n, candCmp)
	sortCandidates(rest[:n])
	s.sorted += n
}

// sortAll puts the whole search space in final order.
func (s *session) sortAll() {
	if s.sorted < len(s.cands) {
		sortCandidates(s.cands)
		s.sorted = len(s.cands)
	}
}

// selectBest moves the n first entries of xs under cmp to xs[:n], in no
// particular order: a heap of the best n so far, the worst at its root,
// which every better entry replaces.
func selectBest(xs []candidate, n int, cmp func(a, b candidate) int) {
	if n <= 0 || n >= len(xs) {
		return
	}
	h := xs[:n]
	for i := n/2 - 1; i >= 0; i-- {
		siftWorst(h, i, cmp)
	}
	for j := n; j < len(xs); j++ {
		if cmp(xs[j], h[0]) < 0 {
			h[0], xs[j] = xs[j], h[0]
			siftWorst(h, 0, cmp)
		}
	}
}

// siftWorst restores heap order below slot i of h, the last entry under
// cmp at the root.
func siftWorst(h []candidate, i int, cmp func(a, b candidate) int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && cmp(h[c+1], h[c]) > 0 {
			c++
		}
		if cmp(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// positiveCandidates returns the candidates with strictly positive
// contribution (the pruning step of Algorithms 3 and 4) in order,
// optionally capped to the top limit entries.
func (s *session) positiveCandidates(limit int) []candidate {
	n := s.npos
	if limit > 0 && n > limit {
		n = limit
	}
	s.order(n)
	return s.cands[:n]
}
