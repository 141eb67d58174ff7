package emigre

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
	"github.com/why-not-xai/emigre/internal/obs"
)

// TestCertifiedCheckAB is the certificate's acceptance A/B on Amazon
// Lite. Every cold CHECK verdict and winner is the same whether the push
// stops once certified or drains to ε (the noCertify seam), over single
// and paired edits of the Remove and Add search spaces; and across modes
// × methods × target ranks so are every explanation, every error and
// every Stats field, the Gated/Cold split included. The certificate must
// also save forward pushes, or the A/B is vacuous.
func TestCertifiedCheckAB(t *testing.T) {
	g, r, q, te := liteScenario(t)
	top, err := r.TopN(q.User, 3)
	if err != nil {
		t.Fatal(err)
	}
	pushes := obs.Default().Counter("emigre_ppr_pushes_total",
		"Individual local-push operations by engine.", obs.L("engine", "forward_push"))
	explainer := func(noCertify bool, k int) *Explainer {
		ex := New(g, r, Options{AllowedEdgeTypes: te, DisableCache: true, MaxTests: 40, TargetRank: k})
		ex.noCertify = noCertify
		return ex
	}
	var certified, drained int64
	count := func(total *int64, f func()) {
		before := pushes.Value()
		f()
		*total += pushes.Value() - before
	}

	ctx := context.Background()
	for _, mode := range []Mode{Remove, Add} {
		qq := Query{User: q.User, WNI: top[1].Node}
		on, err := explainer(false, 1).newSession(ctx, qq, mode)
		if err != nil {
			t.Fatal(err)
		}
		off, err := explainer(true, 1).newSession(ctx, qq, mode)
		if err != nil {
			t.Fatal(err)
		}
		h := on.positiveCandidates(8)
		for i := range h {
			for j := i; j < len(h); j++ {
				cands := []candidate{h[i]}
				if j > i {
					cands = append(cands, h[j])
				}
				r2, err := on.counterfactual(cands)
				if err != nil {
					t.Fatal(err)
				}
				var okOn, okOff bool
				var topOn, topOff hin.NodeID
				count(&certified, func() { okOn, topOn, err = on.rankCheck(ctx, r2) })
				if err != nil {
					t.Fatal(err)
				}
				count(&drained, func() { okOff, topOff, err = off.rankCheck(ctx, r2) })
				if err != nil {
					t.Fatal(err)
				}
				if okOn != okOff || topOn != topOff {
					t.Fatalf("%v edit %d,%d: certified (%v, %d), drained (%v, %d)", mode, i, j, okOn, topOn, okOff, topOff)
				}
			}
		}
	}

	type run struct {
		wni    hin.NodeID
		mode   Mode
		method Method
		k      int
	}
	var runs []run
	for _, wni := range top[1:] {
		for _, mode := range []Mode{Remove, Add, Combined, Reweight} {
			for _, method := range allMethods(mode) {
				runs = append(runs, run{wni.Node, mode, method, 1})
			}
		}
	}
	for _, mode := range []Mode{Remove, Add} {
		for _, method := range []Method{Powerset, Exhaustive} {
			runs = append(runs, run{top[1].Node, mode, method, 2})
		}
	}
	for _, c := range runs {
		name := fmt.Sprintf("WNI %d %v/%v k=%d", c.wni, c.mode, c.method, c.k)
		qq := Query{User: q.User, WNI: c.wni}
		var want, got *Explanation
		var errW, errG error
		count(&drained, func() { want, errW = explainer(true, c.k).ExplainWith(qq, c.mode, c.method) })
		count(&certified, func() { got, errG = explainer(false, c.k).ExplainWith(qq, c.mode, c.method) })
		if (errW == nil) != (errG == nil) || (errW != nil && errW.Error() != errG.Error()) {
			t.Fatalf("%s: error mismatch:\ndrained:   %v\ncertified: %v", name, errW, errG)
		}
		if errW != nil {
			continue
		}
		want.Stats.Duration, got.Stats.Duration = 0, 0
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: explanations diverge:\ndrained:   %+v\ncertified: %+v", name, want, got)
		}
	}
	t.Logf("forward pushes: %d certified against %d drained", certified, drained)
	if certified >= drained {
		t.Fatal("the certificate never stopped a push early; the A/B is vacuous")
	}
}
