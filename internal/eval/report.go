package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/why-not-xai/emigre/internal/hin"
)

const barWidth = 30

func bar(frac float64) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac*barWidth + 0.5)
	return strings.Repeat("█", full) + strings.Repeat("░", barWidth-full)
}

// RenderTable4 prints the per-node-type degree statistics of the
// evaluation graph — the paper's Table 4.
func RenderTable4(w io.Writer, g *hin.Graph) error {
	if _, err := fmt.Fprintln(w, "Table 4: Node degree statistics per node type in the graph."); err != nil {
		return err
	}
	_, err := fmt.Fprint(w, hin.FormatDegreeStats(hin.DegreeStats(g)))
	return err
}

// RenderFigure4 prints the success rate per method — the paper's
// Figure 4.
func RenderFigure4(w io.Writer, r *Results) error {
	if _, err := fmt.Fprintln(w, "Figure 4: Explanation success rate per method."); err != nil {
		return err
	}
	for _, st := range r.Stats() {
		if _, err := fmt.Fprintf(w, " %-20s %s %6.1f%%  (%d/%d correct, %d returned, %d errors)\n",
			st.Method.Name, bar(st.SuccessRate), 100*st.SuccessRate,
			st.Correct, st.Scenarios, st.Found, st.Errors); err != nil {
			return err
		}
	}
	return nil
}

// RenderFigure5 prints each remove-mode method's success rate relative
// to the brute-force oracle — the paper's Figure 5.
func RenderFigure5(w io.Writer, r *Results) error {
	rel, solvable := r.RelativeSuccess(BaselineName)
	if _, err := fmt.Fprintf(w,
		"Figure 5: Explanation success rate relative to brute force (remove mode, %d solvable scenarios).\n",
		solvable); err != nil {
		return err
	}
	for _, st := range r.Stats() {
		frac, ok := rel[st.Method.Name]
		if !ok || st.Method.Mode.String() != "remove" {
			continue
		}
		if _, err := fmt.Fprintf(w, " %-20s %s %6.1f%%\n", st.Method.Name, bar(frac), 100*frac); err != nil {
			return err
		}
	}
	return nil
}

// RenderFigure6 prints the average explanation size per method — the
// paper's Figure 6.
func RenderFigure6(w io.Writer, r *Results) error {
	if _, err := fmt.Fprintln(w, "Figure 6: Average explanation size per method."); err != nil {
		return err
	}
	maxSize := 1.0
	stats := r.Stats()
	for _, st := range stats {
		if st.AvgSize > maxSize {
			maxSize = st.AvgSize
		}
	}
	for _, st := range stats {
		if _, err := fmt.Fprintf(w, " %-20s %s %5.2f edges  (over %d correct)\n",
			st.Method.Name, bar(st.AvgSize/maxSize), st.AvgSize, st.Correct); err != nil {
			return err
		}
	}
	return nil
}

// RenderTable5 prints the average runtimes per method — the paper's
// Table 5: (a) overall, (b) when an explanation is found, (c) when none
// is found.
func RenderTable5(w io.Writer, r *Results) error {
	if _, err := fmt.Fprintln(w, "Table 5: Average runtime per method, (a) overall, (b) found, (c) not found."); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, " %-20s %12s %12s %12s %12s %12s\n", "Method", "(a)", "(b)", "(c)", "p50", "p95"); err != nil {
		return err
	}
	for _, st := range r.Stats() {
		if _, err := fmt.Fprintf(w, " %-20s %12s %12s %12s %12s %12s\n",
			st.Method.Name, fmtDur(st.AvgTime), fmtDur(st.AvgTimeFound), fmtDur(st.AvgTimeNotFound),
			fmtDur(st.P50Time), fmtDur(st.P95Time)); err != nil {
			return err
		}
	}
	return nil
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Microsecond).String()
}

// WriteCSV exports every outcome as one CSV row for downstream
// analysis.
func (r *Results) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"method", "mode", "user", "wni", "rec", "rank",
		"found", "correct", "size", "duration_us", "error",
	}); err != nil {
		return err
	}
	for _, o := range r.Outcomes {
		rec := []string{
			o.Method.Name,
			o.Method.Mode.String(),
			strconv.Itoa(int(o.Scenario.User)),
			strconv.Itoa(int(o.Scenario.WNI)),
			strconv.Itoa(int(o.Scenario.Rec)),
			strconv.Itoa(o.Scenario.Rank),
			strconv.FormatBool(o.Found),
			strconv.FormatBool(o.Correct),
			strconv.Itoa(o.Size),
			strconv.FormatInt(o.Duration.Microseconds(), 10),
			o.Err,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
