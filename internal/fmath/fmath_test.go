package fmath

import (
	"math"
	"testing"
)

func TestEq(t *testing.T) {
	if !Eq(0, 0) || !Eq(1.5, 1.5) {
		t.Fatal("Eq must be exact equality")
	}
	a := 1.0
	b := math.Nextafter(a, 2)
	if Eq(a, b) {
		t.Fatal("Eq must distinguish adjacent floats")
	}
}

func TestBefore(t *testing.T) {
	cases := []struct {
		sa, sb   float64
		ta, tb   int
		expected bool
	}{
		{2, 1, 5, 0, true},  // higher score wins regardless of tie key
		{1, 2, 0, 5, false}, // lower score loses
		{1, 1, 2, 7, true},  // exact tie: lower key first
		{1, 1, 7, 2, false}, // exact tie: higher key second
		{1, 1, 3, 3, false}, // full tie is not strictly before
		{0, -0.5, 9, 1, true},
	}
	for _, c := range cases {
		if got := Before(c.sa, c.sb, c.ta, c.tb); got != c.expected {
			t.Errorf("Before(%g,%g,%d,%d) = %v, want %v", c.sa, c.sb, c.ta, c.tb, got, c.expected)
		}
	}
	// A near-tie is NOT a tie: Before must not use a tolerance.
	a := 0.25
	b := math.Nextafter(a, 1)
	if !Before(b, a, 9, 1) {
		t.Fatal("Before must treat adjacent floats as distinct scores")
	}
}
