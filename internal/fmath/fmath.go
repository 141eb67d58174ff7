// Package fmath centralizes the floating-point comparisons the rest of
// the codebase is forbidden to write inline (enforced by the floateq
// analyzer in internal/lint). PPR scores are sums of many float64
// terms whose low bits depend on summation order, so a bare == is
// either a tolerance bug or an undocumented exact-equality contract.
// Routing every comparison through this package makes the contract
// explicit and auditable in one place:
//
//   - ApproxEq / EqWithin compare computed quantities under a
//     tolerance;
//   - Eq and Before are deliberately exact — they implement the
//     zero-value option sentinel and the ranking tie-break contract,
//     where bitwise equality is the specification (the cache A/B tests
//     pin rankings byte-identical, so a tolerance here would change
//     observable results).
package fmath

import "math"

// Eq reports exact (bitwise) equality of a and b. Use it only where
// exact equality is the contract — zero-value "option not set"
// sentinels, exact fast-path gates like β == 1 — never for comparing
// computed scores; those take ApproxEq.
//
//lint:allow floateq fmath is the audited home of exact float comparison
func Eq(a, b float64) bool { return a == b }

// Before reports whether a score/tie pair ranks strictly before
// another: higher score first, exact score ties broken toward the
// lower tie key (node ID). This is the single ordering contract used
// by the recommender's TopN/RankOf, the explainer's warm CHECK screen and
// the PRINCE action ranking; the exact tie keeps rankings
// deterministic and byte-identical with caching on and off.
//
//lint:allow floateq exact tie-break is the ranking contract
func Before(scoreA, scoreB float64, tieA, tieB int) bool {
	if scoreA != scoreB {
		return scoreA > scoreB
	}
	return tieA < tieB
}

// EqWithin reports |a-b| <= tol. NaN is never within tolerance of
// anything; infinities are within tolerance only of themselves.
//
//lint:allow floateq the exact comparisons handle the infinite cases
func EqWithin(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

// ApproxEq reports equality under the blended relative/absolute
// tolerance |a-b| <= tol * (1 + max(|a|,|b|)): absolute for
// magnitudes below 1 (PPR scores), relative above.
func ApproxEq(a, b, tol float64) bool {
	return EqWithin(a, b, tol*(1+math.Max(math.Abs(a), math.Abs(b))))
}
