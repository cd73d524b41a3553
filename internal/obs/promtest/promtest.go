// Package promtest is a minimal validating parser for the Prometheus
// text exposition format (version 0.0.4). It exists so the exposition
// endpoint can be checked structurally — every line parses, no metric
// family is emitted twice, histogram buckets are cumulative, counters
// are monotonic across scrapes — both in unit tests and in the CI
// scrape job, without depending on the Prometheus client libraries.
package promtest

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	// Name is the sample's metric name (including _bucket/_sum/_count
	// suffixes for histogram series).
	Name string
	// Labels is the raw label block without braces ("" when absent),
	// normalized enough for use as a series key. Label values may hold
	// braces: the block ends at the first '}' outside a quoted value.
	Labels string
	Value  float64
}

// Family is one metric family: its TYPE, HELP and samples in exposition
// order.
type Family struct {
	Name    string
	Type    string
	Help    string
	Samples []Sample
}

// Scrape is a fully parsed exposition payload.
type Scrape struct {
	// Families keyed by family name.
	Families map[string]*Family
	// Order is the family emission order.
	Order []string
}

var (
	nameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{((?:[^}"]|"(?:[^"\\]|\\.)*")*)\})?\s+(\S+)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
)

// seriesName strips the histogram suffixes so samples attach to their
// family.
func seriesName(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// Parse validates and parses one exposition payload. It fails on any
// unparseable line, on a family declared twice, on samples without a
// preceding TYPE declaration, on duplicate series (same name and label
// set), and on non-cumulative histogram buckets.
func Parse(text string) (*Scrape, error) {
	s := &Scrape{Families: map[string]*Family{}}
	var cur *Family
	seen := map[string]bool{} // duplicate-series detection
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if !nameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: bad HELP name %q", lineNo, name)
			}
			if _, dup := s.Families[name]; dup {
				return nil, fmt.Errorf("line %d: family %q declared twice", lineNo, name)
			}
			cur = &Family{Name: name, Help: help}
			s.Families[name] = cur
			s.Order = append(s.Order, name)
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, _ := strings.Cut(rest, " ")
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: bad TYPE %q", lineNo, typ)
			}
			if cur == nil || cur.Name != name {
				return nil, fmt.Errorf("line %d: TYPE %q without preceding HELP", lineNo, name)
			}
			cur.Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("line %d: unparseable sample %q", lineNo, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				if !labelRe.MatchString(pair) {
					return nil, fmt.Errorf("line %d: bad label %q", lineNo, pair)
				}
			}
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, valStr, err)
		}
		famName := seriesName(name)
		fam, ok := s.Families[famName]
		if !ok {
			fam, ok = s.Families[name]
			famName = name
		}
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q without TYPE/HELP", lineNo, name)
		}
		if fam.Type == "" {
			return nil, fmt.Errorf("line %d: family %q has HELP but no TYPE", lineNo, famName)
		}
		key := name + "{" + labels + "}"
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true
		fam.Samples = append(fam.Samples, Sample{Name: name, Labels: labels, Value: val})
	}
	for _, name := range s.Order {
		if err := checkHistogram(s.Families[name]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// splitLabels splits a label block on commas outside quotes.
func splitLabels(block string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(block); i++ {
		switch block[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, block[start:i])
				start = i + 1
			}
		}
	}
	return append(out, block[start:])
}

// checkHistogram verifies each histogram series' buckets are cumulative
// and end with +Inf, and that _count matches the +Inf bucket.
func checkHistogram(f *Family) error {
	if f.Type != "histogram" {
		return nil
	}
	type hist struct {
		buckets []float64
		lastLe  string
		count   float64
		hasCnt  bool
	}
	series := map[string]*hist{}
	keyOf := func(labels string) string {
		var parts []string
		for _, p := range splitLabels(labels) {
			if p != "" && !strings.HasPrefix(p, "le=") {
				parts = append(parts, p)
			}
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	for _, smp := range f.Samples {
		key := keyOf(smp.Labels)
		h := series[key]
		if h == nil {
			h = &hist{}
			series[key] = h
		}
		switch {
		case strings.HasSuffix(smp.Name, "_bucket"):
			if len(h.buckets) > 0 && smp.Value < h.buckets[len(h.buckets)-1] {
				return fmt.Errorf("histogram %s{%s}: bucket counts not cumulative", f.Name, smp.Labels)
			}
			h.buckets = append(h.buckets, smp.Value)
			for _, p := range splitLabels(smp.Labels) {
				if strings.HasPrefix(p, "le=") {
					h.lastLe = p
				}
			}
		case strings.HasSuffix(smp.Name, "_count"):
			h.count = smp.Value
			h.hasCnt = true
		}
	}
	for key, h := range series {
		if len(h.buckets) == 0 {
			return fmt.Errorf("histogram %s{%s}: no buckets", f.Name, key)
		}
		if h.lastLe != `le="+Inf"` {
			return fmt.Errorf("histogram %s{%s}: last bucket is %s, want le=\"+Inf\"", f.Name, key, h.lastLe)
		}
		if h.hasCnt && h.count != h.buckets[len(h.buckets)-1] {
			return fmt.Errorf("histogram %s{%s}: _count %g != +Inf bucket %g", f.Name, key, h.count, h.buckets[len(h.buckets)-1])
		}
	}
	return nil
}

// CheckMonotonic verifies that every counter series present in both
// scrapes did not decrease from a to b.
func CheckMonotonic(a, b *Scrape) error {
	for name, fa := range a.Families {
		if fa.Type != "counter" {
			continue
		}
		fb, ok := b.Families[name]
		if !ok {
			return fmt.Errorf("counter family %q disappeared between scrapes", name)
		}
		bySeries := map[string]float64{}
		for _, smp := range fb.Samples {
			bySeries[smp.Name+"{"+smp.Labels+"}"] = smp.Value
		}
		for _, smp := range fa.Samples {
			key := smp.Name + "{" + smp.Labels + "}"
			later, ok := bySeries[key]
			if !ok {
				return fmt.Errorf("counter series %s disappeared between scrapes", key)
			}
			if later < smp.Value {
				return fmt.Errorf("counter series %s went backwards: %g -> %g", key, smp.Value, later)
			}
		}
	}
	return nil
}
