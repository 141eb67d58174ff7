// Package embed provides a deterministic text-embedding substrate that
// substitutes for Google's Universal Sentence Encoder used in the
// paper's preprocessing (§6.1) to create weighted review–review
// similarity edges.
//
// The encoder hashes each token into a fixed-dimension signed feature
// vector (the classic feature-hashing trick) and L2-normalizes the sum,
// so the cosine similarity of two encodings grows with token overlap —
// exactly the property PPR consumes: "similar review text ⇒ heavier
// edge ⇒ stronger path". The substitution is documented in DESIGN.md §4.
package embed

import (
	"hash/fnv"
	"math"
	"strings"
	"unicode"

	"github.com/why-not-xai/emigre/internal/fmath"
)

// DefaultDim is the embedding dimensionality used by the dataset
// generator. Larger dimensions reduce hash collisions; 64 keeps the
// synthetic pipeline fast.
const DefaultDim = 64

// Encoder embeds text into fixed-length vectors. The zero value is not
// usable; construct with NewEncoder.
type Encoder struct {
	dim int
}

// NewEncoder returns an encoder producing dim-dimensional vectors.
// Non-positive dim falls back to DefaultDim.
func NewEncoder(dim int) *Encoder {
	if dim <= 0 {
		dim = DefaultDim
	}
	return &Encoder{dim: dim}
}

// Encode embeds text as an L2-normalized hashed bag-of-words vector.
// Empty or token-free text encodes to the zero vector.
func (e *Encoder) Encode(text string) []float64 {
	v := make([]float64, e.dim)
	for _, tok := range Tokenize(text) {
		h := fnv.New64a()
		_, _ = h.Write([]byte(tok))
		sum := h.Sum64()
		// splitmix-style diffusion: independent bucket and sign bits.
		z := sum
		z ^= z >> 33
		z *= 0xff51afd7ed558ccd
		z ^= z >> 33
		bucket := int(z % uint64(e.dim))
		sign := 1.0
		if (z>>63)&1 == 1 {
			sign = -1.0
		}
		v[bucket] += sign
	}
	normalize(v)
	return v
}

// Tokenize lower-cases the text and splits it on any non-letter,
// non-digit rune.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// Cosine returns the cosine similarity of two vectors, 0 when either is
// zero or the lengths differ.
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if fmath.Eq(na, 0) || fmath.Eq(nb, 0) {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// SqNorm returns the squared L2 norm of v, summed in index order as
// Cosine sums it.
func SqNorm(v []float64) float64 {
	var n float64
	for _, x := range v {
		n += x * x
	}
	return n
}

// Support returns the indices of v's nonzero entries in ascending
// order. A hashed bag-of-words embedding has at most one per token.
func Support(v []float64) []int {
	var s []int
	for i, x := range v {
		if !fmath.Eq(x, 0) {
			s = append(s, i)
		}
	}
	return s
}

// CosineSupport returns Cosine(a, b) for a caller that compares each
// vector many times and so computes na = SqNorm(a), nb = SqNorm(b) and
// sa = Support(a) once. The dot product runs over sa in ascending
// order; every term it skips is a zero, and adding a zero never
// changes a float sum, so the result has exactly Cosine's bits.
func CosineSupport(a, b []float64, sa []int, na, nb float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	if fmath.Eq(na, 0) || fmath.Eq(nb, 0) {
		return 0
	}
	var dot float64
	for _, i := range sa {
		dot += a[i] * b[i]
	}
	return dot / math.Sqrt(na*nb)
}

func normalize(v []float64) {
	n := SqNorm(v)
	if fmath.Eq(n, 0) {
		return
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}
