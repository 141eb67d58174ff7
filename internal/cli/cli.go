// Package cli holds the plumbing shared by the emigre command-line
// tools: graph loading, node addressing, and enum parsing. It lives in
// its own package so the logic is unit-testable (main packages are
// not).
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	emigre "github.com/why-not-xai/emigre"
)

// Deadline builds the context for one command-line run: bounded by d
// when d > 0, unbounded otherwise. The cancel func must always be
// called.
func Deadline(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.WithCancel(context.Background())
}

// LoadGraph opens a JSON graph file written by emigre-gen, or builds
// the named preset ("books").
func LoadGraph(path, preset string) (*emigre.Graph, error) {
	if preset == "books" {
		b, err := emigre.NewBooks()
		if err != nil {
			return nil, err
		}
		return b.Graph, nil
	}
	if preset != "" {
		return nil, fmt.Errorf("unknown preset %q (only books is built in; use emigre-gen for datasets)", preset)
	}
	if path == "" {
		return nil, fmt.Errorf("either -graph or -preset books is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return emigre.ReadGraphJSON(f)
}

// ErrNoSuchNode reports a node reference that resolves neither as a
// label nor as a valid numeric ID.
var ErrNoSuchNode = errors.New("no such node")

// ResolveNode resolves a node by label first, then by numeric ID.
func ResolveNode(g *emigre.Graph, arg string) (emigre.NodeID, error) {
	if id, ok := g.NodeByLabel(arg); ok {
		return id, nil
	}
	n, err := strconv.Atoi(arg)
	if err != nil || n < 0 || n >= g.NumNodes() {
		return emigre.InvalidNode, fmt.Errorf("%w: %q is neither a label nor a valid id", ErrNoSuchNode, arg)
	}
	return emigre.NodeID(n), nil
}

// NodeName renders a node as its label, falling back to "node-<id>".
func NodeName(g *emigre.Graph, v emigre.NodeID) string {
	if l := g.Label(v); l != "" {
		return l
	}
	return fmt.Sprintf("node-%d", v)
}

// SplitList splits a comma-separated flag value, trimming blanks.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseMode parses a mode name (remove, add, combined, reweight).
func ParseMode(s string) (emigre.Mode, error) {
	switch s {
	case "remove":
		return emigre.Remove, nil
	case "add":
		return emigre.Add, nil
	case "combined":
		return emigre.Combined, nil
	case "reweight":
		return emigre.Reweight, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want remove, add, combined or reweight)", s)
	}
}

// ParseMethod parses a strategy name.
func ParseMethod(s string) (emigre.Method, error) {
	switch s {
	case "incremental":
		return emigre.Incremental, nil
	case "powerset":
		return emigre.Powerset, nil
	case "exhaustive":
		return emigre.Exhaustive, nil
	case "exhaustive-direct":
		return emigre.ExhaustiveDirect, nil
	case "brute-force":
		return emigre.BruteForce, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}

// NodeTypeIDs resolves comma-separated node type names against the
// graph's registry.
func NodeTypeIDs(g *emigre.Graph, names string) ([]emigre.NodeTypeID, error) {
	var out []emigre.NodeTypeID
	for _, name := range SplitList(names) {
		id, ok := g.Types().LookupNodeType(name)
		if !ok {
			return nil, fmt.Errorf("node type %q not present in the graph", name)
		}
		out = append(out, id)
	}
	return out, nil
}

// EdgeTypeIDs resolves comma-separated edge type names against the
// graph's registry.
func EdgeTypeIDs(g *emigre.Graph, names string) ([]emigre.EdgeTypeID, error) {
	var out []emigre.EdgeTypeID
	for _, name := range SplitList(names) {
		id, ok := g.Types().LookupEdgeType(name)
		if !ok {
			return nil, fmt.Errorf("edge type %q not present in the graph", name)
		}
		out = append(out, id)
	}
	return out, nil
}
