package dataset

import (
	"sort"

	"github.com/why-not-xai/emigre/internal/embed"
	"github.com/why-not-xai/emigre/internal/fmath"
	"github.com/why-not-xai/emigre/internal/hin"
)

// linkSimilarReviewsRef is the quadratic review linker that
// linkSimilarReviews replaced, kept as the equivalence reference: it
// compares every same-category pair once through a map of seen pairs,
// collects each review's candidates in both endpoints' lists, sorts
// every list, and runs the same greedy degree cap.
func linkSimilarReviewsRef(g *hin.Graph, types Types, raw *Raw, reviews []reviewRec, cfg Config) error {
	if cfg.MaxSimilarPerReview <= 0 {
		return nil
	}
	byCat := make(map[int][]int) // category -> review indices
	for idx, r := range reviews {
		for _, c := range raw.ItemCategories[r.item] {
			byCat[c] = append(byCat[c], idx)
		}
	}
	type pair struct {
		a, b int
		sim  float64
	}
	best := make(map[int][]pair) // review -> strongest candidate pairs
	seen := make(map[[2]int]bool)
	for _, idxs := range byCat {
		for i := 0; i < len(idxs); i++ {
			for j := i + 1; j < len(idxs); j++ {
				x, y := idxs[i], idxs[j]
				if x > y {
					x, y = y, x
				}
				key := [2]int{x, y}
				if seen[key] {
					continue
				}
				seen[key] = true
				sim := embed.Cosine(reviews[x].vec, reviews[y].vec)
				if sim <= cfg.SimilarityThreshold {
					continue
				}
				best[x] = append(best[x], pair{a: x, b: y, sim: sim})
				best[y] = append(best[y], pair{a: x, b: y, sim: sim})
			}
		}
	}
	// Greedily add the strongest pairs while respecting a hard per-review
	// degree cap on both endpoints.
	added := make(map[[2]int]bool)
	deg := make(map[int]int)
	var order []int
	for idx := range best {
		order = append(order, idx)
	}
	sort.Ints(order)
	for _, idx := range order {
		ps := best[idx]
		sort.Slice(ps, func(i, j int) bool {
			if !fmath.Eq(ps[i].sim, ps[j].sim) {
				return ps[i].sim > ps[j].sim
			}
			if ps[i].a != ps[j].a {
				return ps[i].a < ps[j].a
			}
			return ps[i].b < ps[j].b
		})
		for _, p := range ps {
			if deg[idx] >= cfg.MaxSimilarPerReview {
				break
			}
			key := [2]int{p.a, p.b}
			if added[key] {
				continue
			}
			if deg[p.a] >= cfg.MaxSimilarPerReview || deg[p.b] >= cfg.MaxSimilarPerReview {
				continue
			}
			added[key] = true
			deg[p.a]++
			deg[p.b]++
			if err := g.AddBidirectional(reviews[p.a].node, reviews[p.b].node, types.Similar, p.sim); err != nil {
				return err
			}
		}
	}
	return nil
}
