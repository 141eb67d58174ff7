package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/why-not-xai/emigre/internal/fmath"
)

// kind is the metric family type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. Create with NewRegistry (or use
// Default). Registration methods are safe for concurrent use and
// get-or-create; mutating the returned metrics never touches the
// registry again.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family groups every series sharing one metric name. help, kind and,
// for a histogram, buckets are fixed by the first registration.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64
	series  map[string]*series
}

// series is one labeled instance within a family. Exactly one of the
// value fields is set, matching the family kind (fn serves both
// counter- and gauge-kinded callback series; every gauge is one).
type series struct {
	key  string // serialized labels, e.g. `engine="forward_push"`
	c    *Counter
	fn   func() int64
	hist *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for (name, labels), creating the family
// and series on first use. It panics if the name is already registered
// with a different kind or help string, or the series is
// callback-backed.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, help, kindCounter, nil, labels)
	if s.fn != nil {
		panic("obs: " + name + ": series is callback-backed (CounterFunc)")
	}
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// CounterFunc registers a callback-backed counter series: fn is called
// at render time and must be monotonically non-decreasing (components
// that already keep atomic tallies export them this way without double
// counting). Re-registering the same (name, labels) replaces the
// callback — rebuilt components repoint the series at their newest
// instance. fn runs with the registry lock held and must not call back
// into the registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	if fn == nil {
		panic("obs: CounterFunc " + name + ": nil callback")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, help, kindCounter, nil, labels)
	if s.c != nil {
		panic("obs: " + name + ": series is value-backed (Counter)")
	}
	s.fn = fn
}

// GaugeFunc registers a callback-backed gauge series, with the same
// replacement and locking contract as CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	if fn == nil {
		panic("obs: GaugeFunc " + name + ": nil callback")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seriesLocked(name, help, kindGauge, nil, labels).fn = fn
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use (a +Inf bucket is always
// implicit). Every series of a family shares the bounds of its first
// registration: a request with other bounds panics.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.seriesLocked(name, help, kindHistogram, buckets, labels)
	if s.hist == nil {
		s.hist = newHistogram(buckets)
	}
	return s.hist
}

// seriesLocked resolves (name, labels) to its series, creating family
// and series as needed. A family requested again must match its first
// registration's kind, help string and buckets (nil but for
// histograms): two call sites that drift apart panic on the first run
// that links both, instead of exporting whichever registered first. The
// caller holds r.mu.
func (r *Registry) seriesLocked(name, help string, k kind, buckets []float64, labels []Label) *series {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic("obs: metric " + name + ": invalid label name " + strconv.Quote(l.Name))
		}
		if k == kindHistogram && l.Name == "le" {
			panic("obs: metric " + name + `: label "le" is reserved for histogram buckets`)
		}
	}
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, buckets: slices.Clone(buckets), series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %s already registered as %s, requested %s", name, f.kind, k))
	} else if f.help != help {
		panic(fmt.Sprintf("obs: metric %s already registered with help %q, requested %q", name, f.help, help))
	} else if !slices.EqualFunc(f.buckets, buckets, fmath.Eq) {
		panic(fmt.Sprintf("obs: metric %s already registered with buckets %v, requested %v", name, f.buckets, buckets))
	}
	key := labelKey(labels)
	s := f.series[key]
	if s == nil {
		s = &series{key: key}
		f.series[key] = s
	}
	return s
}

// labelKey serializes labels sorted by name into the exact form they
// are rendered in, so the key doubles as the render fragment.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value: integers without an exponent,
// other floats in shortest round-trip form, infinities in the spelling
// the format requires.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format,
// families and series in lexical order. Callback series invoke their
// callbacks; value series load their atomics. The registry lock is
// held for the duration, so registrations block until the render ends
// (rendering is /metrics-scrape-rate cold path).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.writePrometheus(w, nil)
}

// writePrometheus renders like WritePrometheus but skips (and records)
// family names in rendered, letting Handler merge several registries
// without repeating a family that exists in more than one — the format
// forbids duplicate TYPE lines, and the first registry wins.
func (r *Registry) writePrometheus(w io.Writer, rendered map[string]bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		if rendered[name] {
			continue
		}
		if rendered != nil {
			rendered[name] = true
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		keys := make([]string, 0, len(f.series))
		for key := range f.series {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			renderSeries(&b, f, f.series[key])
		}
	}
	_, _ = io.WriteString(w, b.String())
}

func renderSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.hist != nil:
		renderHistogram(b, f.name, s)
	case s.fn != nil:
		writeSample(b, f.name, s.key, float64(s.fn()))
	case s.c != nil:
		writeSample(b, f.name, s.key, float64(s.c.Value()))
	}
}

func renderHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	cum, count, sum := h.snapshot()
	for i, bound := range h.upper {
		writeSample(b, name+"_bucket", joinKeys(s.key, `le="`+formatValue(bound)+`"`), float64(cum[i]))
	}
	writeSample(b, name+"_bucket", joinKeys(s.key, `le="+Inf"`), float64(count))
	writeSample(b, name+"_sum", s.key, sum)
	writeSample(b, name+"_count", s.key, float64(count))
}

func joinKeys(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSample(b *strings.Builder, name, key string, v float64) {
	b.WriteString(name)
	if key != "" {
		b.WriteByte('{')
		b.WriteString(key)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}
