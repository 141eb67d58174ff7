package hin

import (
	"math"
	"sync/atomic"

	"github.com/why-not-xai/emigre/internal/fmath"
)

// Version identifies the content of a graph view for caching purposes.
// Two views with equal versions are guaranteed to present the same
// adjacency structure (up to digest collision odds of ~2^-64); views
// with different versions may or may not differ — version inequality is
// always safe, it only costs a cache miss.
//
//   - Stamp is a globally monotonic mutation stamp: every mutating
//     operation on a Graph assigns it a fresh stamp from a process-wide
//     counter, so no two distinct graph states ever share one.
//   - Digest folds in derived-view structure: an Overlay mixes an
//     order-insensitive digest of its edit set into its base's version,
//     and a β-mixed snapshot folds β in via Mix (MixedVersion). It is 0
//     for a plain Graph.
type Version struct {
	Stamp  uint64
	Digest uint64
}

// Versioned is implemented by views that can identify their content.
// The boolean reports whether a version is available: wrappers forward
// their base's answer, so a chain rooted at an unversioned custom View
// answers false and is simply not cacheable.
type Versioned interface {
	Version() (Version, bool)
}

// ViewVersion returns the version of v when it (and, transitively, the
// views it wraps) supports versioning.
func ViewVersion(v View) (Version, bool) {
	if vv, ok := v.(Versioned); ok {
		return vv.Version()
	}
	return Version{}, false
}

// Mix derives the version of a view computed from this one plus extra
// structure identified by salt (an edit-set digest, a parameter hash).
// Mixing is deterministic, and distinct salts land on distinct digests
// with overwhelming probability.
func (v Version) Mix(salt uint64) Version {
	return Version{Stamp: v.Stamp, Digest: mix64(v.Digest ^ mix64(salt^0x9e3779b97f4a7c15))}
}

// versionCounter hands out globally unique mutation stamps. Stamp 0 is
// reserved for "never stamped" (a zero-value Graph, which is unusable
// anyway).
var versionCounter atomic.Uint64

// nextVersionStamp returns a fresh, process-unique stamp.
func nextVersionStamp() uint64 { return versionCounter.Add(1) }

// mix64 is the SplitMix64 finalizer: a cheap bijective mixer with full
// avalanche, used to combine digest components.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Edit-kind tags keeping a removal of edge e distinguishable from an
// addition of the same e in an overlay digest.
const (
	editTagRemove = 0x72656d6f76650000 // "remove"
	editTagAdd    = 0x6164640000000000 // "add"
)

// editDigest hashes one overlay edit. Edits are combined by wrapping
// addition, so the digest of an edit set does not depend on the order
// the edits were listed in.
func editDigest(tag uint64, from, to NodeID, typ EdgeTypeID, weight float64) uint64 {
	h := mix64(tag)
	h = mix64(h ^ uint64(uint32(from)))
	h = mix64(h ^ uint64(uint32(to))<<1)
	h = mix64(h ^ uint64(typ)<<2)
	h = mix64(h ^ math.Float64bits(weight))
	return h
}

// MixedVersion is the version of v's β-mixed transition matrix
// (NewMixedCSR): v's version salted with β's bit pattern, or v's own at
// β = 1, where the mix is the identity. Two mixes of one view share a
// version only under the same β.
func MixedVersion(v View, beta float64) (Version, bool) {
	ver, ok := ViewVersion(v)
	if !ok || fmath.Eq(beta, 1) {
		return ver, ok
	}
	return ver.Mix(math.Float64bits(beta)), true
}
