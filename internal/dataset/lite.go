package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/why-not-xai/emigre/internal/hin"
)

// LiteConfig parameterizes the "Amazon Lite" extraction of §6.1:
// randomly sample moderate/active users and keep their H-hop
// neighborhood.
type LiteConfig struct {
	Seed int64
	// SampleUsers is the number of users to sample (the paper uses 100).
	SampleUsers int
	// MinActions/MaxActions bound a "moderate/active" user's action
	// count (out-degree over rated+reviewed edges). Paper: 10–100.
	MinActions int
	MaxActions int
	// Hops is the neighborhood radius (paper: 4).
	Hops int
}

// DefaultLiteConfig returns the paper's sampling parameters.
func DefaultLiteConfig() LiteConfig {
	return LiteConfig{Seed: 1, SampleUsers: 100, MinActions: 10, MaxActions: 100, Hops: 4}
}

// Lite extracts the evaluation subgraph: it samples up to
// cfg.SampleUsers users whose action count lies in [MinActions,
// MaxActions], walks cfg.Hops BFS hops from them (over out-edges; the
// graph is bidirectional so this is the full neighborhood), and builds
// the induced subgraph. It returns the new dataset and the sampled
// users' node IDs in the new graph.
func (a *Amazon) Lite(cfg LiteConfig) (*Amazon, []hin.NodeID, error) {
	if cfg.SampleUsers <= 0 {
		return nil, nil, fmt.Errorf("dataset: SampleUsers must be positive, got %d", cfg.SampleUsers)
	}
	if cfg.Hops < 0 {
		return nil, nil, fmt.Errorf("dataset: Hops must be non-negative, got %d", cfg.Hops)
	}
	actionTypes := a.UserActionEdgeTypes()
	var eligible []hin.NodeID
	for _, u := range a.Users {
		actions := len(a.Graph.OutEdgesOfType(u, actionTypes))
		if actions >= cfg.MinActions && actions <= cfg.MaxActions {
			eligible = append(eligible, u)
		}
	}
	if len(eligible) == 0 {
		return nil, nil, fmt.Errorf("dataset: no users with %d-%d actions", cfg.MinActions, cfg.MaxActions)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	if len(eligible) > cfg.SampleUsers {
		eligible = eligible[:cfg.SampleUsers]
	}
	sort.Slice(eligible, func(i, j int) bool { return eligible[i] < eligible[j] })

	// BFS to cfg.Hops from all sampled users.
	keep := make([]bool, a.Graph.NumNodes())
	frontier := make([]hin.NodeID, 0, len(eligible))
	for _, u := range eligible {
		keep[u] = true
		frontier = append(frontier, u)
	}
	for hop := 0; hop < cfg.Hops && len(frontier) > 0; hop++ {
		var next []hin.NodeID
		for _, v := range frontier {
			a.Graph.OutEdges(v, func(h hin.HalfEdge) bool {
				if !keep[h.Node] {
					keep[h.Node] = true
					next = append(next, h.Node)
				}
				return true
			})
		}
		frontier = next
	}

	lite, remap, err := a.induced(keep)
	if err != nil {
		return nil, nil, err
	}
	sampled := make([]hin.NodeID, len(eligible))
	for i, u := range eligible {
		sampled[i] = remap[u]
	}
	return lite, sampled, nil
}

// induced builds the subgraph over the kept nodes, preserving labels
// and types and the nodes' order, and returns the old→new ID mapping
// (defined on the kept nodes). It counts the kept edges of every node
// first, so the new graph's adjacency is sized before any edge is added.
func (a *Amazon) induced(keep []bool) (*Amazon, []hin.NodeID, error) {
	g2 := hin.NewGraph()
	types := RegisterTypes(g2.Types())
	out := &Amazon{Graph: g2, Types: types}

	var old []hin.NodeID
	remap := make([]hin.NodeID, len(keep))
	for v, kept := range keep {
		if kept {
			remap[v] = hin.NodeID(len(old))
			old = append(old, hin.NodeID(v))
		}
	}
	// Type IDs translate through tables filled on first use, so g2
	// registers the types in the order it meets them. The all-ones ID
	// marks an entry not yet filled; a type that really has it is only
	// looked up again.
	const noNodeType, noEdgeType = ^hin.NodeTypeID(0), ^hin.EdgeTypeID(0)
	reg, reg2 := a.Graph.Types(), g2.Types()
	nodeTypes := make([]hin.NodeTypeID, reg.NumNodeTypes())
	edgeTypes := make([]hin.EdgeTypeID, reg.NumEdgeTypes())
	for t := range nodeTypes {
		nodeTypes[t] = noNodeType
	}
	for t := range edgeTypes {
		edgeTypes[t] = noEdgeType
	}
	for _, v := range old {
		t := a.Graph.NodeType(v)
		if nodeTypes[t] == noNodeType {
			nodeTypes[t] = reg2.NodeType(reg.NodeTypeName(t))
		}
		id := g2.AddNode(nodeTypes[t], a.Graph.Label(v))
		switch nodeTypes[t] {
		case types.User:
			out.Users = append(out.Users, id)
		case types.Item:
			out.Items = append(out.Items, id)
		case types.Category:
			out.Categories = append(out.Categories, id)
		case types.Review:
			out.Reviews = append(out.Reviews, id)
		}
	}
	outDeg, inDeg := make([]int, len(old)), make([]int, len(old))
	for _, v := range old {
		a.Graph.OutEdges(v, func(h hin.HalfEdge) bool {
			if keep[h.Node] {
				outDeg[remap[v]]++
				inDeg[remap[h.Node]]++
			}
			return true
		})
	}
	g2.Reserve(outDeg, inDeg)
	for _, v := range old {
		var addErr error
		a.Graph.OutEdges(v, func(h hin.HalfEdge) bool {
			if !keep[h.Node] {
				return true
			}
			if edgeTypes[h.Type] == noEdgeType {
				edgeTypes[h.Type] = reg2.EdgeType(reg.EdgeTypeName(h.Type))
			}
			if err := g2.AddEdge(remap[v], remap[h.Node], edgeTypes[h.Type], h.Weight); err != nil {
				addErr = err
				return false
			}
			return true
		})
		if addErr != nil {
			return nil, nil, addErr
		}
	}
	if err := g2.Validate(); err != nil {
		return nil, nil, fmt.Errorf("dataset: induced subgraph invalid: %w", err)
	}
	return out, remap, nil
}
