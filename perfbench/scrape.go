package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"github.com/go-citrus/citrus/citrusstat/promtext"
)

var httpClient = &http.Client{Timeout: 10 * time.Second}

// scrapeProm fetches the server's /metrics.prom and parses it with the
// repository's strict parser; a payload it rejects fails the run.
func scrapeProm(httpAddr string) (promtext.Metrics, error) {
	resp, err := httpClient.Get("http://" + httpAddr + "/metrics.prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("/metrics.prom: %s: %s", resp.Status, b)
	}
	m, err := promtext.Parse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("/metrics.prom failed strict parsing: %w", err)
	}
	return m, nil
}

// sum adds every sample of a counter or gauge family whose labels match
// the given name/value pairs (all shards, say). A missing family is 0.
func sum(m promtext.Metrics, name string, pairs ...string) float64 {
	f := m[name]
	if f == nil {
		return 0
	}
	total := 0.0
	for _, s := range f.Samples {
		if matches(s, pairs) {
			total += s.Value
		}
	}
	return total
}

// maxOf is the largest matching sample of a family (a per-shard gauge).
func maxOf(m promtext.Metrics, name string) float64 {
	out := 0.0
	if f := m[name]; f != nil {
		for _, s := range f.Samples {
			out = math.Max(out, s.Value)
		}
	}
	return out
}

func matchesAny(s promtext.Sample, selectors [][]string) bool {
	for _, pairs := range selectors {
		if matches(s, pairs) {
			return true
		}
	}
	return len(selectors) == 0
}

func matches(s promtext.Sample, pairs []string) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if s.Labels[pairs[i]] != pairs[i+1] {
			return false
		}
	}
	return true
}

// delta is the counter family's growth between two scrapes.
func delta(before, after promtext.Metrics, name string, pairs ...string) float64 {
	return sum(after, name, pairs...) - sum(before, name, pairs...)
}

// histSeries is one histogram series' cumulative bucket counts keyed by
// upper bound (seconds).
type histSeries struct {
	les   map[float64]float64
	top   float64 // largest finite bound present
	total float64 // the +Inf bucket
}

// cum is the series' cumulative count at bound le. The encoder emits
// every bucket up to the highest non-empty one and trims the rest, so a
// bound above the series' top holds all of its samples.
func (s *histSeries) cum(le float64) float64 {
	if v, ok := s.les[le]; ok {
		return v
	}
	if le > s.top {
		return s.total
	}
	return 0
}

// readHist collects a histogram family's series matching any of the
// selectors (name/value pair lists; none selects every series).
func readHist(m promtext.Metrics, name string, selectors ...[]string) map[string]*histSeries {
	out := map[string]*histSeries{}
	f := m[name]
	if f == nil {
		return out
	}
	for _, s := range f.Samples {
		if s.Name != name+"_bucket" || !matchesAny(s, selectors) {
			continue
		}
		var names []string
		for k := range s.Labels {
			if k != "le" {
				names = append(names, k)
			}
		}
		slices.Sort(names)
		key := ""
		for _, k := range names {
			key += k + "=" + s.Labels[k] + ","
		}
		sr := out[key]
		if sr == nil {
			sr = &histSeries{les: map[float64]float64{}}
			out[key] = sr
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue // the strict parser already validated every le
		}
		sr.les[le] = s.Value
		if math.IsInf(le, 1) {
			sr.total = s.Value
		} else {
			sr.top = math.Max(sr.top, le)
		}
	}
	return out
}

// histQuantile estimates the q-quantile (0..1), in seconds, of the
// observations a histogram family gained between two scrapes, summed
// over the series the selectors pick, by linear interpolation inside
// the log2 bucket holding the rank — the estimate Prometheus'
// histogram_quantile makes. It is good to within its bucket's 2× span,
// not an exact sample. The second result is the number of observations
// in the interval.
func histQuantile(before, after promtext.Metrics, q float64, name string, selectors ...[]string) (float64, float64) {
	b := readHist(before, name, selectors...)
	a := readHist(after, name, selectors...)
	bounds := map[float64]bool{}
	for _, h := range []map[string]*histSeries{a, b} {
		for _, sr := range h {
			for le := range sr.les {
				bounds[le] = true
			}
		}
	}
	gained := func(le float64) float64 {
		n := 0.0
		for key, sr := range a {
			n += sr.cum(le)
			if prev := b[key]; prev != nil {
				n -= prev.cum(le)
			}
		}
		return n
	}
	les := make([]float64, 0, len(bounds))
	for le := range bounds {
		les = append(les, le)
	}
	slices.Sort(les)
	total := gained(math.Inf(1))
	if total <= 0 {
		return 0, 0
	}
	rank := q * total
	prevLE, prevCum := 0.0, 0.0
	for _, le := range les {
		cum := gained(le)
		if cum >= rank {
			if math.IsInf(le, 1) {
				return prevLE, total
			}
			if cum == prevCum {
				return le, total
			}
			return prevLE + (le-prevLE)*(rank-prevCum)/(cum-prevCum), total
		}
		prevLE, prevCum = le, cum
	}
	return prevLE, total
}

// ratio is n/d, or 0 when nothing was attempted.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
