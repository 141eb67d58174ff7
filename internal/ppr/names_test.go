package ppr

import "testing"

func TestEngineNames(t *testing.T) {
	p := DefaultParams()
	names := map[string]string{
		NewPower(p).Name():       "power",
		NewForwardPush(p).Name(): "forward-push",
		NewReversePush(p).Name(): "reverse-push",
		NewExact(p).Name():       "exact",
	}
	for got, want := range names {
		if got != want {
			t.Fatalf("engine name %q, want %q", got, want)
		}
	}
}
