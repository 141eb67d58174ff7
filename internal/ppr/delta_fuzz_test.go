package ppr

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

// FuzzDeltaPPREquivalence is the randomized contract check behind the
// warm-start refactor: for any base graph and any stacked sequence of
// row edits, UpdateForEdit applied to the cold base push state must
// agree with a full recomputation of the edited view. The fuzz input seeds the generator: the
// first 8 bytes pick the graph, the next byte the edit count, so every
// corpus entry is a fully deterministic scenario.
func FuzzDeltaPPREquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 42, 2})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 7, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x13, 0x37, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			t.Skip("need 8 seed bytes + 1 edit-count byte")
		}
		seed := int64(binary.BigEndian.Uint64(data[:8]))
		nEdits := 1 + int(data[8]%4)
		rng := rand.New(rand.NewSource(seed))

		nodes := 8 + rng.Intn(16)
		g := randomBidirGraph(rng, nodes, nodes+rng.Intn(2*nodes))
		params := testParams()
		s := hin.NodeID(rng.Intn(nodes))

		// Stack nEdits single-row overlays; the warm start sees only the
		// outermost view plus the union of edited rows.
		var view hin.View = g
		touched := map[hin.NodeID]bool{}
		for i := 0; i < nEdits; i++ {
			u := hin.NodeID(rng.Intn(nodes))
			view = toggleRowOverlay(t, g, view, u, rng)
			touched[u] = true
		}
		rows := make([]hin.NodeID, 0, len(touched))
		for u := range touched {
			rows = append(rows, u)
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })

		fwd := NewForwardPush(params)
		base, err := fwd.Run(g, s)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := fwd.UpdateForEdit(context.Background(), g, view, base, rows, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := NewPower(params).FromSource(view, s)
		if err != nil {
			t.Fatal(err)
		}
		for v := range exact {
			if diff := math.Abs(exact[v] - warm.Estimates[v]); diff > 1e-6 {
				t.Fatalf("forward PPR(%d,%d): warm %g vs exact %g (diff %g, %d edits)",
					s, v, warm.Estimates[v], exact[v], diff, nEdits)
			}
		}
	})
}
