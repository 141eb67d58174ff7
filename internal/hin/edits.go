package hin

import "sort"

// RowEdit is one edited source row of an overlay: the unit a
// warm-started PPR update repairs. Any edge edit perturbs every
// transition probability of its row (the recommender's β-mix spreads a
// uniform term over the whole row), so the consumer needs to know which
// rows changed and how large the edit is — not the individual weights,
// which it re-reads from the patched row.
type RowEdit struct {
	// Node is the edited row's source node.
	Node NodeID
	// Changes counts the row's typed edges whose weight changed. A
	// removal re-added at a different weight (the Reweight-mode shape)
	// is one change, not two.
	Changes int
}

// RowEdits enumerates the overlay's edited rows in ascending node
// order, in O(|edits|) instead of re-walking overlay adjacency. Only
// directly edited rows appear; the enumeration covers this overlay's
// own edits relative to its base view (which may itself be an overlay).
//
// The result is built fresh on every call and owned by the caller; an
// Overlay stays immutable and safe for concurrent readers.
func (o *Overlay) RowEdits() []RowEdit {
	if len(o.outWeight) == 0 {
		return nil
	}
	changes := make(map[NodeID]int, len(o.outWeight))
	for k := range o.removed {
		changes[k.from]++
	}
	for from, halves := range o.added {
		for _, h := range halves {
			if _, reweight := o.removed[typedKey{from, h.Node, h.Type}]; !reweight {
				changes[from]++
			}
		}
	}
	edits := make([]RowEdit, 0, len(changes))
	for from, n := range changes {
		edits = append(edits, RowEdit{Node: from, Changes: n})
	}
	sort.Slice(edits, func(i, j int) bool { return edits[i].Node < edits[j].Node })
	return edits
}
