// Package promtext encodes citrusstat metrics in the Prometheus text
// exposition format (version 0.0.4) and strictly parses it back.
//
// The encoder is deliberately tiny — counters, gauges, and the mapping
// from citrusstat's power-of-two latency histograms onto Prometheus's
// cumulative histogram convention — because the repository takes no
// external dependencies. The bucket mapping: citrusstat bucket i counts
// samples in [2^i, 2^(i+1)) nanoseconds, so it contributes to every
// Prometheus `le` bucket with upper bound 2^(i+1)/1e9 seconds and
// above. `_sum` converts the exact SumNanos to seconds; `_count` is the
// total sample count; the `+Inf` bucket always equals `_count`.
//
// The parser (Parse) exists for round-trip tests and for load
// generators that validate a scraped payload. It is strict on purpose:
// it rejects interleaved metric families, samples preceding their TYPE
// line, non-cumulative histogram buckets, and histograms whose +Inf
// bucket disagrees with their _count — the failure modes a hand-rolled
// encoder is most likely to have.
package promtext

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/go-citrus/citrus/citrusstat"
)

// A Label is one name="value" pair attached to a sample.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricType is the TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// sample is one encoded exposition line (name + rendered label block +
// value), retained until WriteTo so a family's samples stay contiguous
// no matter the caller's interleaving.
type sample struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels string // rendered {..} block, "" when no labels
	value  string
}

// family accumulates one metric family.
type family struct {
	name    string
	help    string
	typ     metricType
	samples []sample
}

// An Encoder accumulates metric families and serializes them as one
// Prometheus text payload. Add samples with Counter, Gauge and
// Histogram — the same family may receive many samples with different
// label sets (e.g. one per shard), in any order relative to other
// families — then call WriteTo once. The zero value is not usable; use
// NewEncoder.
type Encoder struct {
	families map[string]*family
	order    []string
	err      error // first error; latched, reported by WriteTo
}

// NewEncoder returns an empty Encoder.
func NewEncoder() *Encoder {
	return &Encoder{families: make(map[string]*family)}
}

// Counter adds a sample to a counter family. value must be
// non-negative and finite.
func (e *Encoder) Counter(name, help string, value float64, labels ...Label) {
	if value < 0 {
		e.fail(fmt.Errorf("promtext: counter %s: negative value %v", name, value))
		return
	}
	e.add(name, help, typeCounter, sample{labels: e.renderLabels(name, labels, "", 0), value: formatValue(value)})
}

// Gauge adds a sample to a gauge family.
func (e *Encoder) Gauge(name, help string, value float64, labels ...Label) {
	e.add(name, help, typeGauge, sample{labels: e.renderLabels(name, labels, "", 0), value: formatValue(value)})
}

// Histogram adds one citrusstat snapshot to a histogram family as a
// full cumulative series: one `_bucket` line per power-of-two upper
// bound (in seconds) through the last non-empty bucket, the `+Inf`
// bucket, `_sum` and `_count`. The bucket layout is fixed per
// snapshot's occupancy; an empty snapshot still emits the `+Inf`
// bucket, `_sum` 0 and `_count` 0 so the series exists from first
// scrape.
func (e *Encoder) Histogram(name, help string, s citrusstat.Snapshot, labels ...Label) {
	var samples []sample
	var cum int64
	top := -1
	for i := citrusstat.NumBuckets - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			top = i
			break
		}
	}
	for i := 0; i <= top; i++ {
		cum += s.Counts[i]
		le := math.Ldexp(1, i+1) / 1e9 // 2^(i+1) ns in seconds
		samples = append(samples, sample{
			suffix: "_bucket",
			labels: e.renderLabels(name, labels, "le", le),
			value:  strconv.FormatInt(cum, 10),
		})
	}
	samples = append(samples,
		sample{suffix: "_bucket", labels: e.renderLabels(name, labels, "le", math.Inf(1)), value: strconv.FormatInt(s.Total(), 10)},
		sample{suffix: "_sum", labels: e.renderLabels(name, labels, "", 0), value: formatValue(float64(s.SumNanos) / 1e9)},
		sample{suffix: "_count", labels: e.renderLabels(name, labels, "", 0), value: strconv.FormatInt(s.Total(), 10)},
	)
	e.add(name, help, typeHistogram, samples...)
}

// fail latches the first error for WriteTo to report.
func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Encoder) add(name, help string, typ metricType, samples ...sample) {
	if !validMetricName(name) {
		e.fail(fmt.Errorf("promtext: invalid metric name %q", name))
		return
	}
	f, ok := e.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		e.families[name] = f
		e.order = append(e.order, name)
	} else if f.typ != typ {
		e.fail(fmt.Errorf("promtext: metric %s registered as %s and %s", name, f.typ, typ))
		return
	}
	f.samples = append(f.samples, samples...)
}

// renderLabels renders the label block, optionally appending an `le`
// label (for histogram buckets). leVal is formatted with the shortest
// representation that round-trips, +Inf as "+Inf" per the format spec.
func (e *Encoder) renderLabels(metric string, labels []Label, leName string, leVal float64) string {
	if len(labels) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if !validLabelName(l.Name) {
			e.fail(fmt.Errorf("promtext: metric %s: invalid label name %q", metric, l.Name))
			return ""
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		b.WriteString(formatLe(leVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteTo serializes every family added so far: `# HELP`, `# TYPE`,
// then the family's samples, families in first-added order. It reports
// the first error any Add-style call latched, so call sites only need
// one error check.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	if e.err != nil {
		return 0, e.err
	}
	var b strings.Builder
	for _, name := range e.order {
		f := e.families[name]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			b.WriteString(f.name)
			b.WriteString(s.suffix)
			b.WriteString(s.labels)
			b.WriteByte(' ')
			b.WriteString(s.value)
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// formatValue renders a float sample value; integral values print
// without an exponent or trailing zeros ("42", not "4.2e+01").
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLe renders a histogram bucket bound.
func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "__name__" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
