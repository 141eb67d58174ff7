package hin

import "testing"

// versionFixture builds a small graph with two users and two items.
func versionFixture(t *testing.T) (*Graph, EdgeTypeID) {
	t.Helper()
	g := NewGraph()
	user := g.Types().NodeType("user")
	item := g.Types().NodeType("item")
	rated := g.Types().EdgeType("rated")
	for i := 0; i < 2; i++ {
		g.AddNode(user, "")
	}
	for i := 0; i < 3; i++ {
		g.AddNode(item, "")
	}
	mustAdd := func(a, b NodeID) {
		t.Helper()
		if err := g.AddBidirectional(a, b, rated, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 2)
	mustAdd(0, 3)
	mustAdd(1, 3)
	return g, rated
}

// snapshotVersion returns the version of an unpatched snapshot.
func snapshotVersion(t *testing.T, c *CSR) Version {
	t.Helper()
	ver, ok := c.Version()
	if !ok {
		t.Fatal("the snapshot is not versioned")
	}
	return ver
}

func TestGraphVersionChangesOnMutation(t *testing.T) {
	g, rated := versionFixture(t)
	v0 := g.Version()
	if v0.Stamp == 0 {
		t.Fatal("constructed graph has zero version stamp")
	}
	if v1 := g.Version(); v1 != v0 {
		t.Fatalf("version changed without mutation: %v -> %v", v0, v1)
	}

	if err := g.AddEdge(1, 2, rated, 1); err != nil {
		t.Fatal(err)
	}
	v1 := g.Version()
	if v1 == v0 {
		t.Fatal("AddEdge did not change the version")
	}
	if err := g.RemoveEdge(1, 2, rated); err != nil {
		t.Fatal(err)
	}
	v2 := g.Version()
	if v2 == v1 || v2 == v0 {
		// Removing the edge restores the original content, but the
		// stamp is deliberately conservative: it never goes back.
		t.Fatalf("RemoveEdge produced a reused version: %v (prev %v, %v)", v2, v1, v0)
	}
	g.AddNode(g.Types().NodeType("user"), "")
	if v3 := g.Version(); v3 == v2 {
		t.Fatal("AddNode did not change the version")
	}
}

func TestGraphCloneHasDistinctVersion(t *testing.T) {
	g, _ := versionFixture(t)
	c := g.Clone()
	if c.Version() == g.Version() {
		t.Fatal("clone shares the original's version")
	}
}

func TestCSRCapturesVersionAtSnapshot(t *testing.T) {
	g, rated := versionFixture(t)
	want := g.Version()
	c := NewCSR(g)
	if got := snapshotVersion(t, c); got != want {
		t.Fatalf("CSR version %v != source version %v", got, want)
	}
	// Mutating the graph moves the graph's version but not the frozen
	// snapshot's.
	if err := g.AddEdge(1, 2, rated, 1); err != nil {
		t.Fatal(err)
	}
	if got := snapshotVersion(t, c); got != want {
		t.Fatal("CSR version moved after a source mutation")
	}
	if g.Version() == want {
		t.Fatal("graph version did not move")
	}
}

func TestVersionMixDistinguishesSalts(t *testing.T) {
	base := Version{Stamp: 7, Digest: 42}
	a, b := base.Mix(1), base.Mix(2)
	if a == b {
		t.Fatal("different salts mixed to the same version")
	}
	if a != base.Mix(1) {
		t.Fatal("Mix is not deterministic")
	}
	if a.Stamp != base.Stamp {
		t.Fatal("Mix must preserve the stamp")
	}
}
