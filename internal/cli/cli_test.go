package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	emigre "github.com/why-not-xai/emigre"
)

func TestLoadGraphPreset(t *testing.T) {
	g, err := LoadGraph("", "books")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.NodeByLabel("Paul"); !ok {
		t.Fatal("books preset missing Paul")
	}
	if _, err := LoadGraph("", "nope"); err == nil {
		t.Fatal("unknown preset should error")
	}
	if _, err := LoadGraph("", ""); err == nil {
		t.Fatal("no source should error")
	}
	if _, err := LoadGraph("/does/not/exist.json", ""); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestLoadGraphFromFiles(t *testing.T) {
	books, err := emigre.NewBooks()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.json")
	var buf bytes.Buffer
	if err := books.Graph.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != books.Graph.NumNodes() {
		t.Fatal("node count mismatch")
	}
	// The file's name does not pick a format: a graph is always JSON.
	bad := filepath.Join(dir, "g.tsv")
	if err := os.WriteFile(bad, []byte("# nodes\n0\tuser\tu\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGraph(bad, ""); err == nil {
		t.Fatal("a non-JSON graph file should not load")
	}
}

func TestResolveNode(t *testing.T) {
	g, err := LoadGraph("", "books")
	if err != nil {
		t.Fatal(err)
	}
	paul, err := ResolveNode(g, "Paul")
	if err != nil {
		t.Fatal(err)
	}
	byID, err := ResolveNode(g, "0")
	if err != nil {
		t.Fatal(err)
	}
	if paul != byID {
		t.Fatalf("label and id resolution disagree: %d vs %d", paul, byID)
	}
	if _, err := ResolveNode(g, "Santa"); err == nil {
		t.Fatal("unknown label should error")
	}
	if _, err := ResolveNode(g, "9999"); err == nil {
		t.Fatal("out-of-range id should error")
	}
	if NodeName(g, paul) != "Paul" {
		t.Fatal("NodeName should use the label")
	}
}

func TestSplitList(t *testing.T) {
	got := SplitList(" a, b ,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("SplitList = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitList[%d] = %q", i, got[i])
		}
	}
	if SplitList("") != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestParseModeMethod(t *testing.T) {
	modes := map[string]emigre.Mode{
		"remove": emigre.Remove, "add": emigre.Add,
		"combined": emigre.Combined, "reweight": emigre.Reweight,
	}
	for name, want := range modes {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode should error")
	}
	methods := map[string]emigre.Method{
		"incremental": emigre.Incremental, "powerset": emigre.Powerset,
		"exhaustive": emigre.Exhaustive, "exhaustive-direct": emigre.ExhaustiveDirect,
		"brute-force": emigre.BruteForce,
	}
	for name, want := range methods {
		got, err := ParseMethod(name)
		if err != nil || got != want {
			t.Fatalf("ParseMethod(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Fatal("bogus method should error")
	}
}

func TestTypeIDResolution(t *testing.T) {
	g, err := LoadGraph("", "books")
	if err != nil {
		t.Fatal(err)
	}
	nts, err := NodeTypeIDs(g, "user,item")
	if err != nil || len(nts) != 2 {
		t.Fatalf("NodeTypeIDs = %v, %v", nts, err)
	}
	if _, err := NodeTypeIDs(g, "spaceship"); err == nil {
		t.Fatal("unknown node type should error")
	}
	ets, err := EdgeTypeIDs(g, "rated,follows")
	if err != nil || len(ets) != 2 {
		t.Fatalf("EdgeTypeIDs = %v, %v", ets, err)
	}
	if _, err := EdgeTypeIDs(g, "teleport"); err == nil {
		t.Fatal("unknown edge type should error")
	}
}
