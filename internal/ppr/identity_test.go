package ppr

import "testing"

// TestIdentityDistinguishesParams checks that every engine folds the
// parameters it reads into its cache identity.
func TestIdentityDistinguishesParams(t *testing.T) {
	base := DefaultParams()
	alt := base
	alt.Alpha = 0.3
	engines := func(p Params) []Identifier {
		return []Identifier{NewPower(p), NewForwardPush(p), NewReversePush(p)}
	}
	for i, e := range engines(base) {
		a, b := e.Identity(), engines(alt)[i].Identity()
		if a == b {
			t.Errorf("%T: identity ignores Alpha: %q", e, a)
		}
		if a != engines(base)[i].Identity() {
			t.Errorf("%T: identity is not stable", e)
		}
	}
}

// TestPushIdentitiesIgnoreUnreadParams pins every engine's identity
// under the paper's parameters to its exact string: the push engines
// name α and ε and nothing else, and power iteration adds its own
// iteration cap and tolerance, which live on Power, not on Params.
func TestPushIdentitiesIgnoreUnreadParams(t *testing.T) {
	p := DefaultParams()
	for _, tc := range []struct {
		e    Identifier
		want string
	}{
		{NewForwardPush(p), "forward-push/a=0.15,eps=2.7e-08"},
		{NewReversePush(p), "reverse-push/a=0.15,eps=2.7e-08"},
		{NewPower(p), "power/a=0.15,tol=1e-12,maxiter=500"},
	} {
		if got := tc.e.Identity(); got != tc.want {
			t.Errorf("%T: identity %q, want %q", tc.e, got, tc.want)
		}
	}
}

// TestIdentitiesDistinctAcrossEngines guards against two different
// algorithms sharing an identity string.
func TestIdentitiesDistinctAcrossEngines(t *testing.T) {
	p := DefaultParams()
	seen := map[string]string{}
	for _, e := range []Identifier{NewPower(p), NewForwardPush(p), NewReversePush(p)} {
		id := e.Identity()
		if prev, dup := seen[id]; dup {
			t.Fatalf("engines %T and %s share identity %q", e, prev, id)
		}
		seen[id] = id
	}
}

// TestPushIdentityFollowsParams: a push engine formats its identity
// once, yet an engine built as a literal, or whose Params change after
// its identity was read, reports the identity of its current
// parameters; reading it again allocates nothing.
func TestPushIdentityFollowsParams(t *testing.T) {
	fwd, rev := &ForwardPush{}, &ReversePush{}
	for _, tc := range []struct {
		e    Identifier
		p    *Params
		name string
	}{{fwd, &fwd.Params, "forward-push"}, {rev, &rev.Params, "reverse-push"}} {
		if got, want := tc.e.Identity(), tc.name+"/a=0,eps=0"; got != want {
			t.Errorf("literal engine: identity %q, want %q", got, want)
		}
		*tc.p = DefaultParams()
		if got, want := tc.e.Identity(), tc.name+"/a=0.15,eps=2.7e-08"; got != want {
			t.Errorf("after setting Params: identity %q, want %q", got, want)
		}
		tc.p.Epsilon = 1e-6
		if got, want := tc.e.Identity(), tc.name+"/a=0.15,eps=1e-06"; got != want {
			t.Errorf("after changing ε: identity %q, want %q", got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { tc.e.Identity() }); allocs != 0 {
			t.Errorf("%s: a repeated identity read allocates %g objects", tc.name, allocs)
		}
	}
}
