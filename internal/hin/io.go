package hin

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteTSV writes the graph as two sections: a "# nodes" section with
// one "id<TAB>type<TAB>label" line per node, then a "# edges" section
// with one "from<TAB>to<TAB>type<TAB>weight" line per edge. The format
// round-trips through ReadTSV and is convenient for shell inspection.
func (g *Graph) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# nodes"); err != nil {
		return err
	}
	for v := 0; v < g.NumNodes(); v++ {
		if _, err := fmt.Fprintf(bw, "%d\t%s\t%s\n", v, g.types.NodeTypeName(g.ntype[v]), g.labels[v]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "# edges"); err != nil {
		return err
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, h := range g.out[v] {
			if _, err := fmt.Fprintf(bw, "%d\t%d\t%s\t%g\n", v, h.Node, g.types.EdgeTypeName(h.Type), h.Weight); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTSV parses the format produced by WriteTSV.
func ReadTSV(r io.Reader) (*Graph, error) {
	g := NewGraph()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	section := ""
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			section = strings.TrimSpace(strings.TrimPrefix(text, "#"))
			continue
		}
		fields := strings.Split(text, "\t")
		// Trim each field: edge whitespace cannot round-trip through the
		// line-level TrimSpace above (found by FuzzReadTSV), so types and
		// labels are stored trimmed.
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		switch section {
		case "nodes":
			if len(fields) < 2 {
				return nil, fmt.Errorf("hin: line %d: node needs id and type", line)
			}
			id, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("hin: line %d: bad node id: %w", line, err)
			}
			if id != g.NumNodes() {
				return nil, fmt.Errorf("hin: line %d: node ids must be dense, got %d want %d", line, id, g.NumNodes())
			}
			// An empty type name would round-trip to a line whose trailing
			// tabs are trimmed away on re-read (found by FuzzReadTSV).
			if fields[1] == "" {
				return nil, fmt.Errorf("hin: line %d: empty node type", line)
			}
			label := ""
			if len(fields) >= 3 {
				label = fields[2]
			}
			// AddNode panics on duplicate labels (a programming-error
			// contract); file input must be validated here instead
			// (found by FuzzReadTSV).
			if label != "" {
				if _, exists := g.NodeByLabel(label); exists {
					return nil, fmt.Errorf("hin: line %d: duplicate node label %q", line, label)
				}
			}
			g.AddNode(g.types.NodeType(fields[1]), label)
		case "edges":
			if len(fields) < 4 {
				return nil, fmt.Errorf("hin: line %d: edge needs from, to, type, weight", line)
			}
			from, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("hin: line %d: bad from: %w", line, err)
			}
			to, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("hin: line %d: bad to: %w", line, err)
			}
			if fields[2] == "" {
				return nil, fmt.Errorf("hin: line %d: empty edge type", line)
			}
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("hin: line %d: bad weight: %w", line, err)
			}
			if err := g.AddEdge(NodeID(from), NodeID(to), g.types.EdgeType(fields[2]), w); err != nil {
				return nil, fmt.Errorf("hin: line %d: %w", line, err)
			}
		default:
			return nil, fmt.Errorf("hin: line %d: content before a section header", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
