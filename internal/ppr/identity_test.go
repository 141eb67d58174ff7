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

// TestPushIdentitiesIgnoreUnreadParams pins the opposite property: the
// push engines' identities must NOT move with the power-iteration-only
// parameters, or identical cached vectors would be needlessly
// recomputed.
func TestPushIdentitiesIgnoreUnreadParams(t *testing.T) {
	p1 := DefaultParams()
	p2 := p1
	p2.MaxIter = 7
	p2.Tol = 1e-3
	for _, pair := range [][2]Identifier{
		{NewForwardPush(p1), NewForwardPush(p2)},
		{NewReversePush(p1), NewReversePush(p2)},
	} {
		if pair[0].Identity() != pair[1].Identity() {
			t.Errorf("%T: identity moves with power-only params: %q vs %q",
				pair[0], pair[0].Identity(), pair[1].Identity())
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
