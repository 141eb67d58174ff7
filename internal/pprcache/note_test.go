package pprcache

import (
	"context"
	"testing"

	"github.com/why-not-xai/emigre/internal/ppr"
)

// sizedNote is a Note of a given size.
type sizedNote int64

func (n sizedNote) Bytes() int64 { return int64(n) }

// noted looks k up through GetOrComputeNoted with a constant fill.
func noted(t *testing.T, c *Cache, k Key) (ppr.Vector, Note, bool) {
	t.Helper()
	vec, note, hit, err := GetOrComputeNoted(context.Background(), c, k, 64, func(_ context.Context, n int) (ppr.Vector, error) {
		return constVec(n, 0.5)(context.Background())
	})
	if err != nil {
		t.Fatal(err)
	}
	return vec, note, hit
}

// TestNoteLivesAndDiesWithItsEntry: a note comes back with its vector in
// the same lookup, is charged to the entry, is ignored when offered
// against another vector, and goes — with its bytes — when the entry is
// evicted or upgraded.
func TestNoteLivesAndDiesWithItsEntry(t *testing.T) {
	c := newCache(Config{MaxEntries: 2}, 1)
	k1, k2, k3 := testKey(1, 1), testKey(1, 2), testKey(1, 3)
	v1, note, hit := noted(t, c, k1)
	if note != nil || hit {
		t.Fatalf("cold lookup: note %v, hit %v", note, hit)
	}
	noted(t, c, k2)
	vectorsOnly := c.Stats().Bytes

	c.SetNote(k1, v1, sizedNote(100))
	if got := c.Stats().Bytes; got != vectorsOnly+100 {
		t.Fatalf("bytes with a note = %d, want %d", got, vectorsOnly+100)
	}
	c.SetNote(k1, make(ppr.Vector, len(v1)), sizedNote(7)) // not the resident vector
	c.SetNote(testKey(9, 9), v1, sizedNote(7))             // not a resident key
	if _, note, hit := noted(t, c, k1); !hit || note != sizedNote(100) {
		t.Fatalf("warm lookup: note %v, hit %v, want the stored note on a hit", note, hit)
	}
	if got := c.Stats().Bytes; got != vectorsOnly+100 {
		t.Fatalf("bytes after stray notes = %d, want %d", got, vectorsOnly+100)
	}

	// k1 was just bumped; k2 goes first, then k1 with its note.
	noted(t, c, k3)
	c.SetNote(k1, v1, sizedNote(40))
	if got, want := c.Stats().Bytes, vectorsOnly+40; got != want {
		t.Fatalf("bytes with a replaced note = %d, want %d", got, want)
	}
	if _, _, hit := noted(t, c, k2); hit {
		t.Fatal("k2 survived past the entry bound")
	}
	if got := c.Stats().Bytes; got != vectorsOnly {
		t.Fatalf("bytes after the noted entry's eviction = %d, want the vectors' %d", got, vectorsOnly)
	}
	if _, note, _ := noted(t, c, k1); note != nil {
		t.Fatalf("recomputed entry carries note %v", note)
	}

	// An upgrade replaces the result and drops the note.
	v3, _, _ := noted(t, c, k3)
	c.SetNote(k3, v3, sizedNote(100))
	if _, _, err := c.GetOrComputeResult(context.Background(), k3, constResult(64, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, note, _ := noted(t, c, k3); note != nil {
		t.Fatalf("upgraded entry kept note %v", note)
	}
	if got, want := c.Stats().Bytes, vectorsOnly+64*8; got != want {
		t.Fatalf("bytes after the upgrade = %d, want %d (vectors plus residuals)", got, want)
	}
}

// TestNoteCanEvictItsOwnEntry: a note that takes its shard past the
// byte budget evicts like an insert, its own entry last.
func TestNoteCanEvictItsOwnEntry(t *testing.T) {
	c := newCache(Config{MaxBytes: 4096}, 1)
	k := testKey(1, 1)
	vec, _, _ := noted(t, c, k)
	c.SetNote(k, vec, sizedNote(4096))
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 || s.Evictions != 1 {
		t.Fatalf("after an oversized note: %+v, want the entry evicted", s)
	}
}
