package hin

import "sync/atomic"

// Version identifies the content of a graph or snapshot for caching
// purposes. Two with equal versions are guaranteed to present the same
// adjacency structure (up to digest collision odds of ~2^-64); two with
// different versions may or may not differ — version inequality is
// always safe, it only costs a cache miss.
//
//   - Stamp is a globally monotonic mutation stamp: every mutating
//     operation on a Graph assigns it a fresh stamp from a process-wide
//     counter, so no two distinct graph states ever share one.
//   - Digest folds in derived structure: a β-mixed snapshot folds
//     β in via Mix (NewMixedCSR). It is 0 for a plain Graph.
type Version struct {
	Stamp  uint64
	Digest uint64
}

// Mix derives the version of a snapshot computed from this one plus extra
// structure identified by salt (a parameter hash). Mixing is
// deterministic, and distinct salts land on distinct digests with
// overwhelming probability.
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
