package obs

import (
	"strings"
	"testing"
	"time"

	"github.com/ccer-go/ccer/internal/obs/promtest"
)

func populatedRegistry() *Registry {
	r := NewRegistry()
	r.Counter("requests_total", "total requests").Add(7)
	r.CounterFunc("external_total", "externally owned", func() int64 { return 42 })
	r.GaugeFunc("temperature", "a gauge", func() float64 { return 1.5 })
	r.LabeledCounterFunc("by_dataset_total", "per dataset", "dataset", func() map[string]int64 {
		return map[string]int64{"D1": 3, "D2": 5}
	})
	vec := r.CounterVec("by_class_total", "per status class", "class")
	vec.With("2xx").Add(10)
	vec.With("5xx").Add(1)
	h := r.Histogram("request_seconds", "request latency")
	h.Observe(75 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Minute) // +Inf bucket
	hv := r.HistogramVec("match_seconds", "per algorithm", "algorithm")
	hv.With("CNC").Observe(time.Millisecond)
	hv.With(`we"ird\label`).Observe(time.Second)
	return r
}

// TestPrometheusExposition renders a fully populated registry and runs
// it through the validating parser: every line parses, families are
// unique, histogram buckets are cumulative and +Inf-terminated.
func TestPrometheusExposition(t *testing.T) {
	r := populatedRegistry()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	scrape, err := promtest.Parse(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	wantFam := map[string]string{
		"requests_total":   "counter",
		"external_total":   "counter",
		"temperature":      "gauge",
		"by_dataset_total": "counter",
		"by_class_total":   "counter",
		"request_seconds":  "histogram",
		"match_seconds":    "histogram",
	}
	for name, typ := range wantFam {
		fam, ok := scrape.Families[name]
		if !ok {
			t.Fatalf("family %q missing", name)
		}
		if fam.Type != typ {
			t.Fatalf("family %q type %q, want %q", name, fam.Type, typ)
		}
	}
	// Spot-check values.
	if got := scrape.Families["requests_total"].Samples[0].Value; got != 7 {
		t.Errorf("requests_total = %g", got)
	}
	if got := scrape.Families["external_total"].Samples[0].Value; got != 42 {
		t.Errorf("external_total = %g", got)
	}
	// The histogram's _count must equal the observations.
	for _, s := range scrape.Families["request_seconds"].Samples {
		if s.Name == "request_seconds_count" && s.Value != 3 {
			t.Errorf("request_seconds_count = %g, want 3", s.Value)
		}
	}
	// Label escaping survived the round trip.
	if !strings.Contains(text, `we\"ird\\label`) {
		t.Errorf("escaped label missing from exposition:\n%s", text)
	}
	// Families are emitted in sorted order, so scrapes are stable.
	for i := 1; i < len(scrape.Order); i++ {
		if scrape.Order[i-1] >= scrape.Order[i] {
			t.Errorf("families not sorted: %q before %q", scrape.Order[i-1], scrape.Order[i])
		}
	}
}

// TestPrometheusMonotonic scrapes twice around counter increments and
// checks the parser's monotonicity validator both ways.
func TestPrometheusMonotonic(t *testing.T) {
	r := populatedRegistry()
	scrapeNow := func() *promtest.Scrape {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		s, err := promtest.Parse(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := scrapeNow()
	r.Counter("requests_total", "").Add(5)
	r.CounterVec("by_class_total", "", "class").With("2xx").Inc()
	b := scrapeNow()
	if err := promtest.CheckMonotonic(a, b); err != nil {
		t.Fatalf("monotonic counters flagged: %v", err)
	}
	if err := promtest.CheckMonotonic(b, a); err == nil {
		t.Fatal("reversed scrapes (decreasing counters) not flagged")
	}
}

// TestPromtestRejectsMalformed: the parser must catch the failure
// modes the CI job guards against.
func TestPromtestRejectsMalformed(t *testing.T) {
	bad := []struct {
		name, text string
	}{
		{"garbage line", "# HELP x h\n# TYPE x counter\nx{ 1\n"},
		{"duplicate family", "# HELP x h\n# TYPE x counter\nx 1\n# HELP x h\n# TYPE x counter\nx 2\n"},
		{"duplicate series", "# HELP x h\n# TYPE x counter\nx 1\nx 2\n"},
		{"sample without family", "y 1\n"},
		{"non-cumulative histogram", "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n"},
		{"histogram missing +Inf", "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\n"},
		{"bad value", "# HELP x h\n# TYPE x counter\nx one\n"},
		{"unterminated label value", "# HELP x h\n# TYPE x counter\nx{a=\"b} 1\n"},
		{"text after the label block", "# HELP x h\n# TYPE x counter\nx{a=\"}\"}b=\"c\"} 1\n"},
	}
	for _, c := range bad {
		if _, err := promtest.Parse(c.text); err == nil {
			t.Errorf("%s: accepted\n%s", c.name, c.text)
		}
	}
}
