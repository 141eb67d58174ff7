package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestGeneratorBytesPinned pins the bytes emigre-gen writes for every
// preset (seed 1): a change to the generator, the review linker or the
// JSON writer that moves one byte of a graph file fails here. The
// amazon and lite presets write the same file: Lite's 4-hop
// neighbourhood of the sampled users is the whole default graph.
func TestGeneratorBytesPinned(t *testing.T) {
	const (
		books = "cc8649d505d89ba18f63913143b175ac2e3326aa90b3627e6dbdffa5b2899f0f"
		small = "111a20e8adcf7efa5d58eb84cc62492e8988e55728b9740199e0e02fe95414b8"
		lite  = "ad560ebfec013e5c12bba4ec53238373220da14d3ec2d77701d9e94797d78fd2"
	)
	sum := func(a *Amazon) string {
		t.Helper()
		var file bytes.Buffer
		if err := a.Graph.WriteJSON(&file); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(file.Bytes())
		return hex.EncodeToString(h[:])
	}
	b, err := NewBooks()
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(&Amazon{Graph: b.Graph}); got != books {
		t.Errorf("books: sha256 %s, want %s", got, books)
	}
	s, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(s); got != small {
		t.Errorf("small: sha256 %s, want %s", got, small)
	}
	a, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(a); got != lite {
		t.Errorf("amazon: sha256 %s, want %s", got, lite)
	}
	l, _, err := a.Lite(DefaultLiteConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(l); got != lite {
		t.Errorf("lite: sha256 %s, want %s", got, lite)
	}
}

// buildWithReference is BuildGraph with the reference linker.
func buildWithReference(raw *Raw) (*Amazon, error) {
	a, reviews, err := buildNodes(raw)
	if err != nil {
		return nil, err
	}
	if err := linkSimilarReviewsRef(a.Graph, a.Types, raw, reviews, raw.Config); err != nil {
		return nil, err
	}
	if err := a.Graph.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// linkerTexts are review texts with shared, disjoint and no vocabulary:
// "" is a rating without a review, the punctuation-only texts embed to
// the zero vector, and repeats give exact similarity ties.
var linkerTexts = []string{
	"", "!!!", "...", "great plot", "great plot", "plot twist suspense", "twist plot",
	"recipes easy delicious", "easy recipes", "dragons magic quest", "quest dragons",
	"great book loved it", "loved it", "a", "b c d e f g",
}

// randomRaw draws a small raw dataset whose category lists may be
// unsorted, repeat a category, or be empty.
func randomRaw(rng *rand.Rand) *Raw {
	cfg := DefaultConfig()
	cfg.Users = 1 + rng.Intn(6)
	cfg.Items = 1 + rng.Intn(12)
	cfg.Categories = 1 + rng.Intn(5)
	cfg.MaxSimilarPerReview = rng.Intn(4)
	cfg.SimilarityThreshold = []float64{0, 0.2, 0.5, 0.8}[rng.Intn(4)]
	cfg.EmbeddingDim = []int{4, 8, 64}[rng.Intn(3)]
	raw := &Raw{Config: cfg, ItemCategories: make([][]int, cfg.Items)}
	for i := range raw.ItemCategories {
		for n := rng.Intn(4); n > 0; n-- {
			raw.ItemCategories[i] = append(raw.ItemCategories[i], rng.Intn(cfg.Categories))
		}
		if rng.Intn(8) > 0 { // mostly without repeats, in any order
			seen := map[int]bool{}
			var cats []int
			for _, c := range raw.ItemCategories[i] {
				if !seen[c] {
					seen[c] = true
					cats = append(cats, c)
				}
			}
			raw.ItemCategories[i] = cats
		}
	}
	for n := rng.Intn(40); n > 0; n-- {
		raw.Ratings = append(raw.Ratings, Rating{
			User:   rng.Intn(cfg.Users),
			Item:   rng.Intn(cfg.Items),
			Stars:  1 + rng.Intn(5),
			Review: linkerTexts[rng.Intn(len(linkerTexts))],
		})
	}
	return raw
}

// TestLinkerMatchesReference holds linkSimilarReviews to the quadratic
// reference it replaced: over random small raw datasets BuildGraph
// writes the same graph bytes, or fails with the same error.
func TestLinkerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var linked, failed int
	for trial := 0; trial < 2000; trial++ {
		raw := randomRaw(rng)
		got, err := BuildGraph(raw)
		want, werr := buildWithReference(raw)
		if err != nil || werr != nil {
			if err == nil || werr == nil || err.Error() != werr.Error() {
				t.Fatalf("trial %d: err %v, reference err %v\nraw: %+v", trial, err, werr, raw)
			}
			failed++
			continue
		}
		var g, w bytes.Buffer
		if err := got.Graph.WriteJSON(&g); err != nil {
			t.Fatal(err)
		}
		if err := want.Graph.WriteJSON(&w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("trial %d: graphs differ from the reference linker's\nraw: %+v\ngot:\n%s\nwant:\n%s", trial, raw, g.Bytes(), w.Bytes())
		}
		if bytes.Contains(g.Bytes(), []byte(`"similar-to"`)) {
			linked++
		}
	}
	if linked < 200 || failed < 50 {
		t.Fatalf("only %d trials linked reviews and %d failed: the draw exercises too little", linked, failed)
	}
}

// TestLinkerMatchesReferenceAtScale compares the two linkers on the
// default configuration ×2, whose categories hold hundreds of reviews.
func TestLinkerMatchesReferenceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two paper-scale graphs")
	}
	cfg, _ := scaledConfigs(2)
	cfg.MaxSimilarPerReview = 3
	raw, err := GenerateRaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw.ItemCategories { // undo GenerateRaw's sorting
		cats := raw.ItemCategories[i]
		for l, r := 0, len(cats)-1; l < r; l, r = l+1, r-1 {
			cats[l], cats[r] = cats[r], cats[l]
		}
	}
	got, err := BuildGraph(raw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := buildWithReference(raw)
	if err != nil {
		t.Fatal(err)
	}
	var g, w bytes.Buffer
	if err := got.Graph.WriteJSON(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.Graph.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatal("×2 graph differs from the reference linker's")
	}
}
