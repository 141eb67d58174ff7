package main

import (
	"testing"
	"time"
)

func TestSpansLinkAndSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	tr := &tracer{spans: []span{
		// One hedged request: the second server leg started later and
		// was still running when the first one won.
		{ID: 1, Name: spanServer, RID: "a", Start: at(20), End: at(50)},
		{ID: 2, Name: spanServer, RID: "a", Start: at(30), End: at(85)},
		{ID: 3, Name: spanRouter, RID: "a", Start: at(10), End: at(90)},
		{ID: 4, Name: spanClient, RID: "a", Start: at(0), End: at(100)},
		// An unrouted request of another ID.
		{ID: 5, Name: spanServer, RID: "b", Start: at(205), End: at(240)},
		{ID: 6, Name: spanClient, RID: "b", Start: at(200), End: at(250)},
	}}
	tr.link()
	wantParent := []int{3, 3, 4, 0, 6, 0}
	for i, s := range tr.spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s %s): parent %d, want %d", s.ID, s.Name, s.RID, s.Parent, wantParent[i])
		}
	}
	// Router self time: its 80 ms minus the winning leg's 30 ms.
	if got := tr.selfTimes(spanRouter); len(got) != 1 || got[0] != at(50) {
		t.Errorf("router self times = %v, want [50ms]", got)
	}
	// Client self time: 100-80 through the router, 50-35 straight.
	if got := tr.selfTimes(spanClient); len(got) != 2 || got[0] != at(20) || got[1] != at(15) {
		t.Errorf("client self times = %v, want [20ms 15ms]", got)
	}
	var off *tracer
	off.record(spanClient, "x", time.Now(), time.Now()) // must not panic
	if off.wrap(spanServer, nil) != nil {
		t.Error("a nil tracer must hand back the handler it was given")
	}
}
