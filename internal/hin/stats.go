package hin

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// TypeDegreeStats summarizes node degrees for one node type — one row of
// the paper's Table 4.
type TypeDegreeStats struct {
	TypeName  string
	NumNodes  int
	AvgDegree float64
	DegreeStd float64
	MinDegree int
	MaxDegree int
}

// DegreeStats computes per-node-type degree statistics over a graph.
// Because the paper's preprocessing makes every relationship
// bidirectional, a node's "degree" is its out-degree (equal to its
// in-degree on such graphs); on asymmetric graphs this still reports
// out-degree, which is what the PPR transition uses. Rows are sorted by
// type name for deterministic output.
func DegreeStats(g *Graph) []TypeDegreeStats {
	reg := g.Types()
	n := g.NumNodes()
	type acc struct {
		count int
		sum   float64
		sumSq float64
		min   int
		max   int
	}
	accs := make(map[NodeTypeID]*acc)
	for v := 0; v < n; v++ {
		t := g.NodeType(NodeID(v))
		a := accs[t]
		if a == nil {
			a = &acc{min: math.MaxInt32}
			accs[t] = a
		}
		d := g.OutDegree(NodeID(v))
		a.count++
		a.sum += float64(d)
		a.sumSq += float64(d) * float64(d)
		if d < a.min {
			a.min = d
		}
		if d > a.max {
			a.max = d
		}
	}
	rows := make([]TypeDegreeStats, 0, len(accs))
	for t, a := range accs {
		mean := a.sum / float64(a.count)
		variance := a.sumSq/float64(a.count) - mean*mean
		if variance < 0 {
			variance = 0
		}
		rows = append(rows, TypeDegreeStats{
			TypeName:  reg.NodeTypeName(t),
			NumNodes:  a.count,
			AvgDegree: mean,
			DegreeStd: math.Sqrt(variance),
			MinDegree: a.min,
			MaxDegree: a.max,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TypeName < rows[j].TypeName })
	return rows
}

// FormatDegreeStats renders degree statistics as an aligned text table
// in the layout of the paper's Table 4.
func FormatDegreeStats(rows []TypeDegreeStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %16s %12s\n", "Node Type", "# of Nodes", "Average Degree", "Degree STD")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10d %16.2f %12.1f\n", r.TypeName, r.NumNodes, r.AvgDegree, r.DegreeStd)
	}
	return b.String()
}
