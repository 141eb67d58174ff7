package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/why-not-xai/emigre/internal/fmath"
)

// ValidateExposition checks that b is a well-formed Prometheus text
// exposition (format version 0.0.4). ParseExposition checks the line
// grammar — comment syntax, at most one TYPE per family declared before
// its first sample, metric/label name charsets, label escaping,
// parseable values — and the parsed families are then held to the
// cross-line contract: no duplicate series, no negative counter, and
// the histogram contract — every histogram series carries a +Inf
// bucket, _sum, _count equal to the +Inf bucket, and cumulative
// non-decreasing bucket counts. It is the plain-text contract smoke
// test CI runs against a live /metrics endpoint.
func ValidateExposition(b []byte) error {
	e, err := ParseExposition(b)
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	for _, f := range e.Families {
		for i := range f.Samples {
			s := &f.Samples[i]
			id := s.Name + "{" + flattenLabels(s.Labels) + "}"
			if seen[id] {
				return fmt.Errorf("obs: duplicate series %s", id)
			}
			seen[id] = true
			if f.Type == "counter" && s.Value < 0 {
				return fmt.Errorf("obs: counter %s has negative value %s", s.Name, formatValue(s.Value))
			}
		}
		if f.Type == "histogram" {
			if err := checkHistogram(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// histSeries accumulates one histogram series (one base-label set).
type histSeries struct {
	labels   string             // base labels, le excluded
	buckets  map[string]float64 // le value -> count
	sum      float64
	hasSum   bool
	count    float64
	hasCount bool
}

// checkHistogram groups a histogram family's samples into series by
// their labels other than le and checks each series.
func checkHistogram(f *ParsedFamily) error {
	var series []*histSeries
	byLabels := make(map[string]*histSeries)
	for i := range f.Samples {
		s := &f.Samples[i]
		suffix := strings.TrimPrefix(s.Name, f.Name)
		le, hasLe := "", false
		base := make([]Label, 0, len(s.Labels))
		for _, l := range s.Labels {
			if l.Name == "le" {
				le, hasLe = l.Value, true
			} else {
				base = append(base, l)
			}
		}
		key := flattenLabels(base)
		hs := byLabels[key]
		if hs == nil {
			hs = &histSeries{labels: key, buckets: make(map[string]float64)}
			byLabels[key] = hs
			series = append(series, hs)
		}
		switch suffix {
		case "_bucket":
			if !hasLe {
				return fmt.Errorf("obs: histogram %s: _bucket sample without le label", f.Name)
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || math.IsNaN(bound) {
				return fmt.Errorf("obs: histogram %s: bad le %q", f.Name, le)
			}
			hs.buckets[le] = s.Value
		case "_sum", "_count":
			if hasLe {
				return fmt.Errorf("obs: histogram %s: %s sample with le label", f.Name, suffix)
			}
			if suffix == "_sum" {
				hs.sum, hs.hasSum = s.Value, true
			} else {
				hs.count, hs.hasCount = s.Value, true
			}
		default:
			return fmt.Errorf("obs: histogram %s: non-histogram sample %s", f.Name, s.Name)
		}
	}
	for _, hs := range series {
		if err := checkHistSeries(f.Name, hs); err != nil {
			if hs.labels != "" {
				return fmt.Errorf("%w (labels {%s})", err, hs.labels)
			}
			return err
		}
	}
	return nil
}

func checkHistSeries(family string, hs *histSeries) error {
	inf, ok := hs.buckets["+Inf"]
	if !ok {
		return fmt.Errorf("obs: histogram %s: missing le=\"+Inf\" bucket", family)
	}
	if !hs.hasCount {
		return fmt.Errorf("obs: histogram %s: missing _count", family)
	}
	if !hs.hasSum {
		return fmt.Errorf("obs: histogram %s: missing _sum", family)
	}
	if !fmath.Eq(hs.count, inf) {
		return fmt.Errorf("obs: histogram %s: _count %g != +Inf bucket %g", family, hs.count, inf)
	}
	type bucket struct {
		bound float64
		count float64
	}
	buckets := make([]bucket, 0, len(hs.buckets))
	for le, count := range hs.buckets {
		bound, _ := strconv.ParseFloat(le, 64) // already validated per sample
		buckets = append(buckets, bucket{bound: bound, count: count})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].bound < buckets[j].bound })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].count < buckets[i-1].count {
			return fmt.Errorf("obs: histogram %s: bucket counts not cumulative at le=%s",
				family, formatValue(buckets[i].bound))
		}
	}
	return nil
}

// flattenLabels renders parsed labels back into a canonical
// sorted key for duplicate detection and histogram grouping.
func flattenLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := slices.Clone(labels)
	slices.SortFunc(sorted, func(a, b Label) int { return strings.Compare(a.Name, b.Name) })
	var b strings.Builder
	for i, l := range sorted {
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
