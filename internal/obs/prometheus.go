package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WantsPrometheus decides which view a /metrics request gets: an
// explicit ?format=prometheus or ?format=json wins, then an Accept
// header naming text/plain or an openmetrics type (what a Prometheus
// scraper sends; browsers and JSON consumers do not) selects the
// exposition. The default is JSON.
func WantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// WritePrometheus renders every registered metric family in the
// Prometheus text exposition format (version 0.0.4): HELP/TYPE
// comments, counters and gauges as single samples, histograms as
// cumulative _bucket{le=...} series plus _sum and _count. Durations are
// exposed in seconds, the Prometheus convention. Families are emitted
// in name order, so two scrapes of an idle registry are byte-identical.
// A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, fam := range r.families() {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", fam.name, escapeHelp(fam.help), fam.name, fam.kind)
		switch {
		case fam.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", fam.name, fam.counter.Load())
		case fam.counterFn != nil:
			fmt.Fprintf(&b, "%s %d\n", fam.name, fam.counterFn())
		case fam.gaugeFn != nil:
			fmt.Fprintf(&b, "%s %s\n", fam.name, formatFloat(fam.gaugeFn()))
		case fam.labeledFn != nil:
			writeLabeledInts(&b, fam.name, fam.label, fam.labeledFn())
		case fam.vec != nil:
			writeLabeledInts(&b, fam.name, fam.label, fam.vec.Snapshot())
		case fam.hist != nil:
			writeHistogram(&b, fam.name, "", "", fam.hist.Snapshot())
		case fam.histVec != nil:
			snaps := fam.histVec.Snapshot()
			for _, label := range sortedKeys(snaps) {
				writeHistogram(&b, fam.name, fam.label, label, snaps[label])
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func writeLabeledInts(b *strings.Builder, name, label string, samples map[string]int64) {
	for _, k := range sortedKeys(samples) {
		fmt.Fprintf(b, "%s{%s=\"%s\"} %d\n", name, label, escapeLabel(k), samples[k])
	}
}

// writeHistogram emits the cumulative bucket series, sum and count of
// one histogram, with bucket bounds converted from nanoseconds to
// seconds. label/labelValue are empty for unlabeled histograms.
func writeHistogram(b *strings.Builder, name, label, labelValue string, s HistSnapshot) {
	lbl := func(extra string) string {
		switch {
		case label == "" && extra == "":
			return ""
		case label == "":
			return "{" + extra + "}"
		case extra == "":
			return fmt.Sprintf("{%s=\"%s\"}", label, escapeLabel(labelValue))
		default:
			return fmt.Sprintf("{%s=\"%s\",%s}", label, escapeLabel(labelValue), extra)
		}
	}
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		le := formatFloat(float64(bound) / 1e9)
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, lbl(`le="`+le+`"`), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, lbl(`le="+Inf"`), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, lbl(""), formatFloat(float64(s.Sum)/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, lbl(""), s.Count)
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
