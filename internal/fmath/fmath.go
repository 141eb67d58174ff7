// Package fmath centralizes the floating-point comparisons the rest of
// the codebase is forbidden to write inline (enforced by the floateq
// analyzer in internal/lint). PPR scores are sums of many float64
// terms whose low bits depend on summation order, so a bare == is
// either a tolerance bug or an undocumented exact-equality contract.
// Routing every comparison through this package makes the contract
// explicit and auditable in one place:
//
//   - Eq and Before are deliberately exact — they implement the
//     zero-value option sentinel and the ranking tie-break contract,
//     where bitwise equality is the specification (the cache A/B tests
//     pin rankings byte-identical, so a tolerance here would change
//     observable results).
package fmath

// Eq reports exact (bitwise) equality of a and b. Use it only where
// exact equality is the contract — zero-value "option not set"
// sentinels, exact fast-path gates like β == 1 — never for comparing
// computed scores; those take a tolerance (math.Abs(a-b) <= tol).
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
