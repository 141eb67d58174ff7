package ppr

import (
	"strings"
	"testing"
)

// TestEngineNames pins the name each engine's Identity — its cache key
// component — starts with.
func TestEngineNames(t *testing.T) {
	p := DefaultParams()
	names := map[string]Identifier{
		"power/":        NewPower(p),
		"forward-push/": NewForwardPush(p),
		"reverse-push/": NewReversePush(p),
	}
	for want, e := range names {
		if got := e.Identity(); !strings.HasPrefix(got, want) {
			t.Fatalf("engine identity %q, want the prefix %q", got, want)
		}
	}
}
