package main

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/client"
)

func TestDueClockTimesFromTheSchedule(t *testing.T) {
	// A phase that started 50 ms ago: an op due at 20 ms is 30 ms late
	// however long ago it was actually sent.
	c := dueClock{start: time.Now().Add(-50 * time.Millisecond)}
	if got := c.since(20 * time.Millisecond); got < 30*time.Millisecond || got > 130*time.Millisecond {
		t.Errorf("since(20ms) = %v, want a little over 30ms", got)
	}
	if got := c.since(80 * time.Millisecond); got > -20*time.Millisecond {
		t.Errorf("since(80ms) = %v, want about -30ms: not yet due", got)
	}

	begin := time.Now()
	if err := c.sleepUntil(context.Background(), 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(begin); waited > 20*time.Millisecond {
		t.Errorf("sleepUntil of a past due time waited %v", waited)
	}
	if err := c.sleepUntil(context.Background(), 80*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := c.since(80 * time.Millisecond); got < 0 {
		t.Errorf("sleepUntil returned %v before the due time", -got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.sleepUntil(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Errorf("sleepUntil under a canceled context = %v, want context.Canceled", err)
	}
}

func TestClassify(t *testing.T) {
	api := func(status int) error { return fmt.Errorf("giving up: %w", &client.APIError{Status: status}) }
	cases := []struct {
		kind string
		err  error
		want outcome
	}{
		{opExplain, nil, outAnswered},
		{opExplain, api(404), outNoExplanation},
		{opDiagnose, api(404), outFault},
		{opExplain, api(429), outShed},
		{opExplain, api(503), outShed},
		{opExplain, api(504), outTimedOut},
		{opExplain, api(499), outTimedOut},
		{opExplain, api(500), outFault},
		{opExplain, api(422), outFault},
		{opRecommend, context.DeadlineExceeded, outTimedOut},
		{opRecommend, errors.New("connection refused"), outFault},
	}
	for _, c := range cases {
		if got := classify(c.kind, c.err); got != c.want {
			t.Errorf("classify(%s, %v) = %s, want %s", c.kind, c.err, got, c.want)
		}
	}
	for _, o := range []outcome{outShed, outTimedOut, outFault, outDegraded} {
		if !o.failed() {
			t.Errorf("%s must count as failed", o)
		}
	}
	if outAnswered.failed() || outNoExplanation.failed() {
		t.Error("answered and no-explanation are the paper's two legitimate outcomes, not failures")
	}
}
