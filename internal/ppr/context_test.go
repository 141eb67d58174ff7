package ppr

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/why-not-xai/emigre/internal/hin"
)

// canceledCtx returns an already-canceled context: every engine must
// notice it and bail out instead of running the full computation.
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestEnginesHonorCanceledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := hin.NewCSR(randomBidirGraph(rng, 30, 60))
	p := testParams()
	s := hin.NodeID(3)

	cases := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"Power.FromSource", func(ctx context.Context) error {
			_, err := testPower(p).FromSourceContext(ctx, g, s)
			return err
		}},
		{"Power.ToTarget", func(ctx context.Context) error {
			_, err := testPower(p).ToTargetContext(ctx, g, s)
			return err
		}},
		{"ForwardPush", func(ctx context.Context) error {
			_, err := NewForwardPush(p).FromSourceContext(ctx, g, s)
			return err
		}},
		{"ReversePush", func(ctx context.Context) error {
			_, err := NewReversePush(p).ToTargetContext(ctx, g, s)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(canceledCtx()); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The same call with a live context must still work: the
			// cancellation paths must not corrupt the happy path.
			if err := tc.run(context.Background()); err != nil {
				t.Fatalf("background ctx: %v", err)
			}
		})
	}
}

// TestNonContextEntryPointsIgnoreCancellation: the reference engines'
// context-free entry points delegate to a background context and must
// succeed.
func TestNonContextEntryPointsIgnoreCancellation(t *testing.T) {
	g, ids := lineGraph(t)
	e := testPower(testParams())
	if _, err := e.FromSource(g, ids[0]); err != nil {
		t.Fatalf("FromSource: %v", err)
	}
	if _, err := e.ToTarget(g, ids[2]); err != nil {
		t.Fatalf("ToTarget: %v", err)
	}
}
