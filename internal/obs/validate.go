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
// exposition (format version 0.0.4): comment syntax, at most one TYPE
// per family declared before its first sample, metric/label name
// charsets, label escaping, parseable values, no duplicate series, and
// the histogram contract — every histogram series carries a +Inf
// bucket, cumulative non-decreasing bucket counts, and _count equal to
// the +Inf bucket. It is the plain-text contract smoke test CI runs
// against a live /metrics endpoint.
func ValidateExposition(b []byte) error {
	v := &validator{
		types:     make(map[string]string),
		sampled:   make(map[string]bool),
		seen:      make(map[string]bool),
		histogram: make(map[string]map[string]*histSeries),
	}
	text := string(b)
	if text != "" && !strings.HasSuffix(text, "\n") {
		return fmt.Errorf("obs: exposition must end with a newline")
	}
	for i, line := range strings.Split(text, "\n") {
		if err := v.line(line); err != nil {
			return fmt.Errorf("obs: line %d: %w", i+1, err)
		}
	}
	return v.finish()
}

// histSeries accumulates one histogram series (one base-label set).
type histSeries struct {
	buckets  map[string]float64 // le value -> count
	sum      float64
	hasSum   bool
	count    float64
	hasCount bool
}

type validator struct {
	types     map[string]string                 // family -> declared TYPE
	sampled   map[string]bool                   // family -> sample seen
	seen      map[string]bool                   // full series id -> present
	histogram map[string]map[string]*histSeries // family -> base labels -> series
}

func (v *validator) line(line string) error {
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return v.comment(line)
	}
	return v.sample(line)
}

func (v *validator) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 || fields[0] != "#" {
		// "#-prefixed but not '# '": plain comment, anything goes.
		return nil
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("TYPE needs a metric name and a type")
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name %q in TYPE", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %s", typ, name)
		}
		if _, dup := v.types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		if v.sampled[name] {
			return fmt.Errorf("TYPE for %s after its first sample", name)
		}
		v.types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("HELP needs a metric name")
		}
		if !validMetricName(fields[2]) {
			return fmt.Errorf("invalid metric name %q in HELP", fields[2])
		}
	}
	return nil
}

func (v *validator) sample(line string) error {
	name, rest, err := splitName(line)
	if err != nil {
		return err
	}
	labels, rest, err := parseLabels(rest)
	if err != nil {
		return fmt.Errorf("metric %s: %w", name, err)
	}
	valueText, _, _ := strings.Cut(strings.TrimSpace(rest), " ") // optional timestamp after the value
	if valueText == "" {
		return fmt.Errorf("metric %s: missing value", name)
	}
	value, err := strconv.ParseFloat(valueText, 64)
	if err != nil {
		return fmt.Errorf("metric %s: bad value %q", name, valueText)
	}

	family, suffix := histogramFamily(v.types, name)
	v.sampled[family] = true
	id := name + "{" + flattenLabels(labels) + "}"
	if v.seen[id] {
		return fmt.Errorf("duplicate series %s", id)
	}
	v.seen[id] = true

	if typ := v.types[family]; typ == "counter" && value < 0 {
		return fmt.Errorf("counter %s has negative value %s", name, valueText)
	}
	if suffix != "" {
		return v.histogramSample(family, suffix, labels, value)
	}
	return nil
}

// histogramFamily maps a sample name to its family: when a declared
// histogram family matches the name minus a _bucket/_sum/_count
// suffix, the sample belongs to that family.
func histogramFamily(types map[string]string, name string) (family, suffix string) {
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, sfx)
		if ok && types[base] == "histogram" {
			return base, sfx
		}
	}
	return name, ""
}

func (v *validator) histogramSample(family, suffix string, labels []Label, value float64) error {
	le, hasLe := "", false
	base := make([]Label, 0, len(labels))
	for _, l := range labels {
		if l.Name == "le" {
			le, hasLe = l.Value, true
		} else {
			base = append(base, l)
		}
	}
	baseKey := flattenLabels(base)
	group := v.histogram[family]
	if group == nil {
		group = make(map[string]*histSeries)
		v.histogram[family] = group
	}
	hs := group[baseKey]
	if hs == nil {
		hs = &histSeries{buckets: make(map[string]float64)}
		group[baseKey] = hs
	}
	switch suffix {
	case "_bucket":
		if !hasLe {
			return fmt.Errorf("histogram %s: _bucket sample without le label", family)
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil || math.IsNaN(bound) {
			return fmt.Errorf("histogram %s: bad le %q", family, le)
		}
		hs.buckets[le] = value
	case "_sum":
		if hasLe {
			return fmt.Errorf("histogram %s: _sum sample with le label", family)
		}
		hs.sum, hs.hasSum = value, true
	case "_count":
		if hasLe {
			return fmt.Errorf("histogram %s: _count sample with le label", family)
		}
		hs.count, hs.hasCount = value, true
	}
	return nil
}

// finish runs the cross-line histogram checks once every sample is in.
func (v *validator) finish() error {
	for family, typ := range v.types {
		if typ != "histogram" {
			continue
		}
		group := v.histogram[family]
		if len(group) == 0 {
			if v.sampled[family] {
				return fmt.Errorf("obs: histogram %s: declared but has non-histogram samples", family)
			}
			continue // declared, never sampled: legal
		}
		for baseKey, hs := range group {
			if err := checkHistSeries(family, hs); err != nil {
				if baseKey != "" {
					return fmt.Errorf("%w (labels {%s})", err, baseKey)
				}
				return err
			}
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
		bound, _ := strconv.ParseFloat(le, 64) // already validated per line
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

// splitName cuts the metric name off the front of a sample line,
// returning the remainder (label block and/or value).
func splitName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, line[i:], nil
}

// parseLabels parses an optional {name="value",...} block into its
// labels in order (nil for none), handling escaped quotes, backslashes
// and newlines in values and rejecting a repeated name.
func parseLabels(s string) ([]Label, string, error) {
	var labels []Label
	if !strings.HasPrefix(s, "{") {
		return nil, s, nil
	}
	i := 1
	for {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i == len(s) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		lname := strings.TrimSpace(s[start:i])
		if !validLabelName(lname) && lname != "le" {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		if slices.ContainsFunc(labels, func(l Label) bool { return l.Name == lname }) {
			return nil, "", fmt.Errorf("duplicate label %q", lname)
		}
		i++ // consume '='
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label %s: value must be quoted", lname)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("label %s: unterminated value", lname)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("label %s: dangling escape", lname)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", lname, s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: lname, Value: val.String()})
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		return nil, "", fmt.Errorf("label %s: expected ',' or '}'", lname)
	}
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
