// Package dataset builds the graphs used by the paper's evaluation.
//
// The paper evaluates on the Amazon Customer Review dataset, whose S3
// release has been retired and is not redistributable. This package
// substitutes a synthetic generator with the same *shape* (DESIGN.md
// §4): 120 users, ~7.5k items, 32 heavy-tailed categories, ~2.3k
// reviews with generated text, ratings 1–5 skewed positive, and the
// paper's full preprocessing pipeline (§6.1):
//
//  1. keep only good ratings (> 3);
//  2. model users, items, categories and reviews as typed nodes with
//     "rated", "reviewed", "has-review" and "belongs-to" relationships,
//     every relationship bidirectional;
//  3. add review–review similarity edges weighted by the cosine
//     similarity of review-text embeddings (package embed substitutes
//     the Universal Sentence Encoder);
//  4. sample moderate users (10–100 actions) and extract their 4-hop
//     neighborhood → the "Amazon Lite" evaluation graph.
//
// The package also ships the Figure-1 books toy graph (books.go) used
// by the paper's running example.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/why-not-xai/emigre/internal/embed"
)

// Node and edge type names registered by this package.
const (
	TypeUser     = "user"
	TypeItem     = "item"
	TypeCategory = "category"
	TypeReview   = "review"

	EdgeRated     = "rated"
	EdgeReviewed  = "reviewed"
	EdgeHasReview = "has-review"
	EdgeBelongsTo = "belongs-to"
	EdgeSimilar   = "similar-to"
)

// Config parameterizes the synthetic Amazon generator.
type Config struct {
	Seed int64

	Users      int
	Items      int
	Categories int

	// CategoriesPerItemMean controls how many categories an item
	// belongs to (≥ 1).
	CategoriesPerItemMean float64

	// PreferredCategories is the number of categories a user's taste
	// concentrates on.
	PreferredCategories int

	// RatingsPerUserMean/Std shape the (clipped normal) number of items
	// each user rates. Paper user degree: 22.1 ± 2.7 actions.
	RatingsPerUserMean float64
	RatingsPerUserStd  float64

	// ReviewProb is the probability a rated item also gets a text
	// review (each review adds a "reviewed" action and a review node).
	ReviewProb float64

	// GoodRatingBias is the probability a rating is > 3 (the paper
	// keeps only such ratings).
	GoodRatingBias float64

	// SimilarityThreshold and MaxSimilarPerReview bound the
	// review–review similarity edges.
	SimilarityThreshold float64
	MaxSimilarPerReview int

	// EmbeddingDim is the review-embedding dimensionality.
	EmbeddingDim int
}

// DefaultConfig returns the full paper-scale configuration: 9 818 nodes
// and 39 004 directed edges after preprocessing (the paper's Amazon
// Lite has ≈11.8k / ≈40.5k). The default Lite extraction keeps all of
// it.
func DefaultConfig() Config {
	return Config{
		Seed:                  1,
		Users:                 120,
		Items:                 7459,
		Categories:            32,
		CategoriesPerItemMean: 1.57,
		PreferredCategories:   3,
		RatingsPerUserMean:    28,
		RatingsPerUserStd:     3,
		ReviewProb:            0.85,
		GoodRatingBias:        0.8,
		SimilarityThreshold:   0.5,
		MaxSimilarPerReview:   1,
		EmbeddingDim:          embed.DefaultDim,
	}
}

// SmallConfig returns a scaled-down configuration for tests and
// examples (a few hundred nodes).
func SmallConfig() Config {
	c := DefaultConfig()
	c.Users = 30
	c.Items = 400
	c.Categories = 8
	c.RatingsPerUserMean = 14
	c.RatingsPerUserStd = 2
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Users <= 0 || c.Items <= 0 || c.Categories <= 0:
		return fmt.Errorf("dataset: users/items/categories must be positive (%d/%d/%d)", c.Users, c.Items, c.Categories)
	case c.CategoriesPerItemMean < 1:
		return fmt.Errorf("dataset: CategoriesPerItemMean must be ≥ 1, got %g", c.CategoriesPerItemMean)
	case c.PreferredCategories <= 0 || c.PreferredCategories > c.Categories:
		return fmt.Errorf("dataset: PreferredCategories out of range: %d", c.PreferredCategories)
	case c.RatingsPerUserMean <= 0:
		return fmt.Errorf("dataset: RatingsPerUserMean must be positive, got %g", c.RatingsPerUserMean)
	case c.ReviewProb < 0 || c.ReviewProb > 1:
		return fmt.Errorf("dataset: ReviewProb out of [0,1]: %g", c.ReviewProb)
	case c.GoodRatingBias < 0 || c.GoodRatingBias > 1:
		return fmt.Errorf("dataset: GoodRatingBias out of [0,1]: %g", c.GoodRatingBias)
	case c.SimilarityThreshold < 0 || c.SimilarityThreshold >= 1:
		return fmt.Errorf("dataset: SimilarityThreshold out of [0,1): %g", c.SimilarityThreshold)
	}
	return nil
}

// Rating is one raw user-item interaction before preprocessing.
type Rating struct {
	User   int // user index (0-based)
	Item   int // item index (0-based)
	Stars  int // 1..5
	Review string
}

// Raw is the un-preprocessed synthetic dataset, mirroring what the
// Amazon release provides: items with category memberships, and rating
// records with optional review text.
type Raw struct {
	Config         Config
	ItemCategories [][]int // item index -> category indices
	Ratings        []Rating
}

// GenerateRaw produces the raw synthetic dataset. The generator is
// deterministic for a fixed Config.Seed.
func GenerateRaw(cfg Config) (*Raw, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Heavy-tailed category popularity (the paper's category degrees
	// have std ≈ 0.8 × mean): Zipf-ish weights.
	catWeight := make([]float64, cfg.Categories)
	var totalW float64
	for c := range catWeight {
		catWeight[c] = 1 / math.Sqrt(float64(c+1))
		totalW += catWeight[c]
	}
	sampleCat := func() int {
		x := rng.Float64() * totalW
		for c, w := range catWeight {
			x -= w
			if x <= 0 {
				return c
			}
		}
		return cfg.Categories - 1
	}

	// Item -> categories (each item in ≥ 1 category).
	itemCats := make([][]int, cfg.Items)
	for i := range itemCats {
		n := 1
		for rng.Float64() < cfg.CategoriesPerItemMean-1 && n < cfg.Categories {
			// Geometric extension approximating the configured mean.
			n++
			if rng.Float64() < 0.5 {
				break
			}
		}
		seen := make(map[int]bool, n)
		for len(seen) < n {
			seen[sampleCat()] = true
		}
		for c := range seen {
			itemCats[i] = append(itemCats[i], c)
		}
		sort.Ints(itemCats[i]) // map order is random; keep output deterministic
	}
	// Category -> items index for preference-driven rating.
	catItems := make([][]int, cfg.Categories)
	for i, cats := range itemCats {
		for _, c := range cats {
			catItems[c] = append(catItems[c], i)
		}
	}

	var ratings []Rating
	for u := 0; u < cfg.Users; u++ {
		// User taste: a few preferred categories, heavy ones more likely.
		prefs := make(map[int]bool)
		for len(prefs) < cfg.PreferredCategories {
			prefs[sampleCat()] = true
		}
		var prefList []int
		for c := range prefs {
			if len(catItems[c]) > 0 {
				prefList = append(prefList, c)
			}
		}
		if len(prefList) == 0 {
			prefList = append(prefList, 0)
		}
		sort.Ints(prefList) // deterministic iteration despite map collection
		n := int(rng.NormFloat64()*cfg.RatingsPerUserStd + cfg.RatingsPerUserMean)
		if n < 1 {
			n = 1
		}
		rated := make(map[int]bool)
		for k := 0; k < n; k++ {
			var item int
			if rng.Float64() < 0.85 {
				c := prefList[rng.Intn(len(prefList))]
				item = catItems[c][rng.Intn(len(catItems[c]))]
			} else {
				item = rng.Intn(cfg.Items)
			}
			if rated[item] {
				continue
			}
			rated[item] = true
			stars := sampleStars(rng, cfg.GoodRatingBias)
			review := ""
			if rng.Float64() < cfg.ReviewProb {
				review = reviewText(rng, itemCats[item])
			}
			ratings = append(ratings, Rating{User: u, Item: item, Stars: stars, Review: review})
		}
	}
	return &Raw{Config: cfg, ItemCategories: itemCats, Ratings: ratings}, nil
}

// sampleStars draws a 1-5 rating; with probability goodBias the rating
// is 4 or 5, otherwise 1-3.
func sampleStars(rng *rand.Rand, goodBias float64) int {
	if rng.Float64() < goodBias {
		return 4 + rng.Intn(2)
	}
	return 1 + rng.Intn(3)
}

// categoryVocab is the token pool reviews draw from; reviews of items
// in the same category share vocabulary, so their hashed embeddings are
// similar — the property the review–review edges encode.
var categoryVocab = [][]string{
	{"thrilling", "plot", "characters", "twist", "suspense", "pacing"},
	{"practical", "guide", "examples", "reference", "clear", "concise"},
	{"romance", "heartfelt", "emotional", "tender", "moving", "sweet"},
	{"epic", "fantasy", "worldbuilding", "magic", "quest", "dragons"},
	{"history", "detailed", "sources", "period", "accurate", "archival"},
	{"science", "rigorous", "insightful", "theory", "evidence", "experiments"},
	{"cooking", "recipes", "flavors", "ingredients", "easy", "delicious"},
	{"mystery", "detective", "clues", "whodunit", "atmospheric", "noir"},
}

var commonVocab = []string{
	"great", "book", "read", "loved", "recommend", "good", "really",
	"story", "well", "written", "excellent", "enjoyed",
}

func reviewText(rng *rand.Rand, cats []int) string {
	pool := categoryVocab[0]
	if len(cats) > 0 {
		pool = categoryVocab[cats[0]%len(categoryVocab)]
	}
	n := 5 + rng.Intn(8)
	words := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.6 {
			words = append(words, pool[rng.Intn(len(pool))])
		} else {
			words = append(words, commonVocab[rng.Intn(len(commonVocab))])
		}
	}
	out := words[0]
	for _, w := range words[1:] {
		out += " " + w
	}
	return out
}
