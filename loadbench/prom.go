package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/ccer-go/ccer/internal/obs/promtest"
)

// series is one Prometheus scrape flattened to "name{labels}" -> value.
// Histogram buckets are dropped; their _sum and _count stay.
type series map[string]float64

// parseProm validates an exposition with promtest.Parse and flattens it.
// promtest's sample grammar ends a label block at the first '}', so
// braces inside quoted label values (the route pattern
// "DELETE /v1/graphs/{name...}") are read as parentheses.
func parseProm(text string) (series, error) {
	sc, err := promtest.Parse(maskBraces(text))
	if err != nil {
		return nil, err
	}
	out := series{}
	for _, f := range sc.Families {
		for _, s := range f.Samples {
			if !strings.HasSuffix(s.Name, "_bucket") {
				out[s.Name+"{"+s.Labels+"}"] = s.Value
			}
		}
	}
	return out, nil
}

// maskBraces replaces '{' and '}' inside quoted label values with '('
// and ')'.
func maskBraces(text string) string {
	b := []byte(text)
	quoted := false
	for i := 0; i < len(b); i++ {
		switch {
		case b[i] == '\n':
			quoted = false
		case b[i] == '\\' && quoted:
			i++
		case b[i] == '"' && (quoted || i > 0 && b[i-1] == '='):
			quoted = !quoted
		case quoted && b[i] == '{':
			b[i] = '('
		case quoted && b[i] == '}':
			b[i] = ')'
		}
	}
	return string(b)
}

// scrape fetches and parses one server's Prometheus exposition. It also
// returns how long the HTTP exchange took: the server's request histogram
// times scrapes as well.
func scrape(c *http.Client, base string) (series, time.Duration, error) {
	start := time.Now()
	resp, err := c.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if err != nil {
		return nil, took, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, took, fmt.Errorf("scrape %s: status %d", base, resp.StatusCode)
	}
	s, err := parseProm(string(body))
	return s, took, err
}

// delta is after minus before for every series of after; a series absent
// before counts from zero. It is meaningful for counters and histogram
// sums and counts, not for gauges.
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds several scrapes series by series (one per server).
func sum(sets ...series) series {
	out := series{}
	for _, s := range sets {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}

// total sums one metric over all its label sets.
func (s series) total(name string) float64 {
	var t float64
	for k, v := range s {
		if n, _, _ := strings.Cut(k, "{"); n == name {
			t += v
		}
	}
	return t
}

// byLabel maps the values of one label of a metric to the metric's value.
func (s series) byLabel(name, label string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s {
		n, rest, _ := strings.Cut(k, "{")
		if n != name {
			continue
		}
		for _, pair := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
			key, val, ok := strings.Cut(pair, "=")
			if !ok || key != label {
				continue
			}
			if uq, err := strconv.Unquote(val); err == nil {
				out[uq] += v
			}
		}
	}
	return out
}

// mean is a histogram's sum over its count, in seconds (0 when empty).
func (s series) mean(name string) float64 {
	return ratio(s.total(name+"_sum"), s.total(name+"_count"))
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
