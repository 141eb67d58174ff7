package embed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Great BOOK, loved it!  10/10")
	want := []string{"great", "book", "loved", "it", "10", "10"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if len(Tokenize("  ...  ")) != 0 {
		t.Fatal("punctuation-only text should produce no tokens")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	e := NewEncoder(0)
	if e.dim != DefaultDim {
		t.Fatalf("Dim = %d, want %d", e.dim, DefaultDim)
	}
	a := e.Encode("wonderful fantasy adventure")
	b := e.Encode("wonderful fantasy adventure")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("encoding not deterministic")
		}
	}
}

func TestEncodeNormalized(t *testing.T) {
	e := NewEncoder(32)
	v := e.Encode("some review text with several words")
	var n float64
	for _, x := range v {
		n += x * x
	}
	if math.Abs(n-1) > 1e-12 {
		t.Fatalf("L2 norm^2 = %g, want 1", n)
	}
	zero := e.Encode("")
	for _, x := range zero {
		if x != 0 {
			t.Fatal("empty text should encode to the zero vector")
		}
	}
}

func TestCosineProperties(t *testing.T) {
	e := NewEncoder(128)
	a := e.Encode("dark fantasy dragons magic quest")
	b := e.Encode("dragons magic fantasy epic quest")
	c := e.Encode("compiler optimization register allocation pass")
	if got := Cosine(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Cosine(a,a) = %g, want 1", got)
	}
	simAB := Cosine(a, b)
	simAC := Cosine(a, c)
	if simAB <= simAC {
		t.Fatalf("overlapping texts should be more similar: sim(a,b)=%g, sim(a,c)=%g", simAB, simAC)
	}
	if Cosine(a, b) != Cosine(b, a) {
		t.Fatal("cosine should be symmetric")
	}
}

func TestCosineDegenerateInputs(t *testing.T) {
	if Cosine(nil, nil) != 0 {
		t.Fatal("Cosine(nil,nil) should be 0")
	}
	if Cosine([]float64{1, 0}, []float64{1}) != 0 {
		t.Fatal("length mismatch should be 0")
	}
	if Cosine([]float64{0, 0}, []float64{1, 0}) != 0 {
		t.Fatal("zero vector should yield 0")
	}
}

func TestQuickCosineBounds(t *testing.T) {
	e := NewEncoder(64)
	f := func(s1, s2 string) bool {
		c := Cosine(e.Encode(s1), e.Encode(s2))
		return c >= -1-1e-9 && c <= 1+1e-9 && !math.IsNaN(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCosineSupportMatchesCosine: with the norms and the support
// precomputed, CosineSupport returns Cosine's exact bits — on review
// embeddings, on raw sparse vectors with negative entries and signed
// zeros, and on zero and mismatched vectors.
func TestCosineSupportMatchesCosine(t *testing.T) {
	enc := NewEncoder(16)
	texts := []string{"", "!!!", "great plot", "plot twist suspense great", "a b c d e f g h i j k l m n o p q"}
	var vecs [][]float64
	for _, s := range texts {
		vecs = append(vecs, enc.Encode(s))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		v := make([]float64, 16)
		for j := range v {
			switch rng.Intn(4) {
			case 0:
				v[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			case 1:
				v[j] = math.Copysign(0, -1)
			}
		}
		vecs = append(vecs, v)
	}
	vecs = append(vecs, []float64{1, 2}, nil)
	for _, a := range vecs {
		for _, b := range vecs {
			want := Cosine(a, b)
			got := CosineSupport(a, b, Support(a), SqNorm(a), SqNorm(b))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("CosineSupport(%v, %v) = %v, Cosine = %v", a, b, got, want)
			}
		}
	}
}
