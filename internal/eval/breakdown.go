package eval

import (
	"fmt"
	"io"
	"sort"
)

// RateCount is a success counter.
type RateCount struct {
	Correct int
	Total   int
}

// Rate returns Correct/Total (0 when empty).
func (rc RateCount) Rate() float64 {
	if rc.Total == 0 {
		return 0
	}
	return float64(rc.Correct) / float64(rc.Total)
}

// RankBreakdown splits one method's success rate by the Why-Not item's
// original rank in the recommendation list. The paper's "popular item"
// discussion (§6.4) predicts lower success for deeper ranks: the
// further WNI sits from the top, the more competitors the explanation
// must displace.
func (r *Results) RankBreakdown(method string) map[int]RateCount {
	out := make(map[int]RateCount)
	for _, o := range r.Outcomes {
		if o.Method.Name != method {
			continue
		}
		rc := out[o.Scenario.Rank]
		rc.Total++
		if o.Correct {
			rc.Correct++
		}
		out[o.Scenario.Rank] = rc
	}
	return out
}

// RenderRankBreakdown prints the per-rank success rates of each method.
func RenderRankBreakdown(w io.Writer, r *Results) error {
	if _, err := fmt.Fprintln(w, "Success rate by Why-Not item rank."); err != nil {
		return err
	}
	for _, st := range r.Stats() {
		br := r.RankBreakdown(st.Method.Name)
		ranks := make([]int, 0, len(br))
		for rank := range br {
			ranks = append(ranks, rank)
		}
		sort.Ints(ranks)
		if _, err := fmt.Fprintf(w, " %-20s", st.Method.Name); err != nil {
			return err
		}
		for _, rank := range ranks {
			rc := br[rank]
			if _, err := fmt.Fprintf(w, "  r%d: %5.1f%% (%d)", rank, 100*rc.Rate(), rc.Total); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders the whole evaluation as a Markdown document:
// the Table-4 shape is omitted (graph-level, see RenderTable4), the
// figures become tables.
func (r *Results) WriteMarkdown(w io.Writer) error {
	stats := r.Stats()
	if _, err := fmt.Fprintf(w, "## Figure 4 — success rate per method\n\n| method | success | correct | returned | scenarios |\n|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, st := range stats {
		if _, err := fmt.Fprintf(w, "| %s | %.1f%% | %d | %d | %d |\n",
			st.Method.Name, 100*st.SuccessRate, st.Correct, st.Found, st.Scenarios); err != nil {
			return err
		}
	}
	rel, solvable := r.RelativeSuccess(BaselineName)
	if _, err := fmt.Fprintf(w, "\n## Figure 5 — relative to brute force (%d solvable)\n\n", solvable); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| method | relative success |\n|---|---|\n"); err != nil {
		return err
	}
	for _, st := range stats {
		if frac, ok := rel[st.Method.Name]; ok && st.Method.Mode.String() == "remove" {
			if _, err := fmt.Fprintf(w, "| %s | %.1f%% |\n", st.Method.Name, 100*frac); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(w, "\n## Figure 6 — average explanation size\n\n| method | avg size |\n|---|---|\n"); err != nil {
		return err
	}
	for _, st := range stats {
		if _, err := fmt.Fprintf(w, "| %s | %.2f |\n", st.Method.Name, st.AvgSize); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n## Table 5 — runtime (a overall / b found / c not found)\n\n| method | (a) | (b) | (c) |\n|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, st := range stats {
		if _, err := fmt.Fprintf(w, "| %s | %s | %s | %s |\n",
			st.Method.Name, fmtDur(st.AvgTime), fmtDur(st.AvgTimeFound), fmtDur(st.AvgTimeNotFound)); err != nil {
			return err
		}
	}
	return nil
}
