package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/why-not-xai/emigre/internal/fmath"
)

func TestCounterRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", L("route", "/explain"))
	c.Inc()
	c.Add(2)
	c.Add(0)  // ignored
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
	out := render(r)
	for _, want := range []string{
		"# HELP test_requests_total Requests served.\n",
		"# TYPE test_requests_total counter\n",
		`test_requests_total{route="/explain"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestGetOrCreateReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "h", L("k", "v"))
	b := r.Counter("test_total", "h", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("test_total", "h", L("k", "w"))
	if a == other {
		t.Fatal("different label values must be distinct series")
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "h", L("b", "2"), L("a", "1"))
	b := r.Counter("test_total", "h", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order must not distinguish series")
	}
	a.Add(7)
	out := render(r)
	if !strings.Contains(out, `test_total{a="1",b="2"} 7`+"\n") {
		t.Fatalf("labels must render sorted by name:\n%s", out)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name must panic")
		}
	}()
	r.GaugeFunc("test_total", "h", func() int64 { return 0 })
}

// TestHelpDriftPanics: a family requested again with another help
// string panics, whatever its kind, even for a new label set — the
// exposition carries one help line per family, so one of the two call
// sites would be silently wrong.
func TestHelpDriftPanics(t *testing.T) {
	for _, register := range []func(r *Registry, help string){
		func(r *Registry, help string) { r.Counter("test_total", help, L("a", help)) },
		func(r *Registry, help string) { r.CounterFunc("test_total", help, func() int64 { return 0 }) },
		func(r *Registry, help string) { r.GaugeFunc("test_total", help, func() int64 { return 0 }) },
		func(r *Registry, help string) { r.Histogram("test_total", help, DefBuckets()) },
	} {
		r := NewRegistry()
		register(r, "h")
		register(r, "h") // the same help string is a plain get
		func() {
			defer func() {
				if recover() == nil {
					t.Error("requesting a family with another help string must panic")
				}
			}()
			register(r, "drift")
		}()
	}
}

// TestBucketDriftPanics: every series of a histogram family shares the
// bounds of its first registration; a request with other bounds panics,
// for the same series and for a new one.
func TestBucketDriftPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("test_seconds", "h", []float64{0.1, 1}, L("route", "/a"))
	r.Histogram("test_seconds", "h", []float64{0.1, 1}, L("route", "/b"))
	for _, buckets := range [][]float64{{0.1, 1, 10}, {0.1, 2}, nil} {
		for _, route := range []string{"/a", "/c"} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("buckets %v for route %s must panic", buckets, route)
					}
				}()
				r.Histogram("test_seconds", "h", buckets, L("route", route))
			}()
		}
	}
}

func TestInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "2leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q must panic", name)
				}
			}()
			NewRegistry().Counter(name, "h")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("label name __reserved must panic")
			}
		}()
		NewRegistry().Counter("test_total", "h", L("__reserved", "x"))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error(`histogram label "le" must panic`)
			}
		}()
		NewRegistry().Histogram("test_hist", "h", DefBuckets(), L("le", "1"))
	}()
}

func TestFuncMetricsReplaceOnReregister(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("test_fn_total", "h", func() int64 { return 1 })
	r.CounterFunc("test_fn_total", "h", func() int64 { return 42 })
	r.GaugeFunc("test_fn_gauge", "h", func() int64 { return 5 })
	r.GaugeFunc("test_fn_gauge", "h", func() int64 { return 6 })
	out := render(r)
	if !strings.Contains(out, "test_fn_total 42\n") {
		t.Errorf("CounterFunc re-registration must replace the callback:\n%s", out)
	}
	if !strings.Contains(out, "test_fn_gauge 6\n") {
		t.Errorf("GaugeFunc re-registration must replace the callback:\n%s", out)
	}
}

func TestValueAndFuncSeriesConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("CounterFunc over a value-backed series must panic")
		}
	}()
	r.CounterFunc("test_total", "h", func() int64 { return 0 })
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "h", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50, math.NaN()} {
		h.Observe(v)
	}
	if got := observations(h); got != 5 {
		t.Fatalf("Count = %d, want 5 (NaN dropped)", got)
	}
	if got, want := h.Sum(), 0.05+0.5+0.5+5+50; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
	out := render(r)
	for _, want := range []string{
		"# TYPE test_seconds histogram\n",
		`test_seconds_bucket{le="0.1"} 1` + "\n",
		`test_seconds_bucket{le="1"} 3` + "\n",
		`test_seconds_bucket{le="10"} 4` + "\n",
		`test_seconds_bucket{le="+Inf"} 5` + "\n",
		"test_seconds_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("own histogram output must validate: %v", err)
	}
}

func TestHistogramBucketNormalization(t *testing.T) {
	// Unsorted, duplicated and +Inf bounds must normalize to a strictly
	// ascending finite list.
	h := newHistogram([]float64{5, 1, 5, math.Inf(1), 2})
	want := []float64{1, 2, 5}
	if len(h.upper) != len(want) {
		t.Fatalf("upper = %v, want %v", h.upper, want)
	}
	for i := range want {
		if math.Abs(h.upper[i]-want[i]) > 0 {
			t.Fatalf("upper = %v, want %v", h.upper, want)
		}
	}
}

func TestHistogramBoundaryIsInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "h", []float64{1})
	h.Observe(1) // le="1" means <= 1
	out := render(r)
	if !strings.Contains(out, `test_seconds_bucket{le="1"} 1`+"\n") {
		t.Fatalf("observation equal to a bound must land in that bucket:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "line1\nline2 \\ backslash", L("k", "quote\" slash\\ nl\n")).Inc()
	out := render(r)
	if !strings.Contains(out, `# HELP test_total line1\nline2 \\ backslash`+"\n") {
		t.Errorf("HELP escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, `test_total{k="quote\" slash\\ nl\n"} 1`+"\n") {
		t.Errorf("label value escaping wrong:\n%s", out)
	}
	if err := ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("escaped output must validate: %v", err)
	}
}

func TestSetEnabledGatesAllMutation(t *testing.T) {
	defer SetEnabled(true)
	r := NewRegistry()
	c := r.Counter("test_total", "h")
	h := r.Histogram("test_seconds", "h", DefBuckets())
	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled must report false after SetEnabled(false)")
	}
	c.Inc()
	h.Observe(1)
	if c.Value() != 0 || observations(h) != 0 {
		t.Fatal("disabled metrics must not record")
	}
	SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("re-enabled counter must record again")
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(3)
	h.Observe(1)
	if c.Value() != 0 || !fmath.Eq(h.Sum(), 0) {
		t.Fatal("nil metrics must read as zero")
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "h")
	h := r.Histogram("test_seconds", "h", DefBuckets())
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := observations(h); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestHandlerDedupesRegistries(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "h").Inc()
	rec := httptest.NewRecorder()
	Handler(r, r, nil, r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentType)
	}
	body := rec.Body.String()
	if strings.Count(body, "# TYPE test_total counter") != 1 {
		t.Fatalf("duplicate registry must render once:\n%s", body)
	}
	if err := ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("handler output must validate: %v", err)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-9, 10, 4)
	want := []float64{1e-9, 1e-8, 1e-7, 1e-6}
	for i := range want {
		if math.Abs(got[i]-want[i]) > want[i]*1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets with factor <= 1 must panic")
		}
	}()
	ExpBuckets(1, 1, 3)
}

func TestDefaultRegistryIsStable(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must return the same registry")
	}
}

// render returns r's exposition as a string.
// observations is h's sample count, the +Inf bucket's cumulative count.
func observations(h *Histogram) int64 {
	_, n, _ := h.snapshot()
	return n
}

func render(r *Registry) string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}
