package obs

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The Prometheus text exposition (format 0.0.4) that dvid and its
// gateway serve on GET /metrics. This file alone knows the format:
// HELP and TYPE lines, label rendering, the order of series within a
// family, the latency histogram's buckets, and how values print. The
// daemons declare their families and values through an Exposition.
//
// Series order: a CounterVec or HistogramVec writes its series sorted
// by label values; series written with Int or Float keep the order they
// were written in. Values: Int prints in decimal, Float in %g (Go's
// shortest form, so an integral value from 1e6 up prints with an
// exponent, as 2.080003e+06).

// latencyBuckets are the upper bounds, in seconds, of every latency
// histogram. Simulations run milliseconds to seconds; the range covers
// both tails.
var latencyBuckets = [...]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// labelSep joins a series' label values into one map key. It sorts
// before every other byte, so sorting the keys sorts by label values
// (endpoints, status codes and phase names never contain it).
const labelSep = "\x00"

// CounterVec is a set of integer counters keyed by label values, such
// as requests by endpoint and status code. The zero value is ready to
// use, and a CounterVec is safe for concurrent use.
type CounterVec struct {
	mu sync.Mutex
	n  map[string]int64 // by label values joined with labelSep
}

// Inc adds one to the series with the given label values.
func (c *CounterVec) Inc(values ...string) {
	key := strings.Join(values, labelSep)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = make(map[string]int64)
	}
	c.n[key]++
}

// HistogramVec is a set of latency histograms keyed by one label's
// value. The zero value is ready to use, and a HistogramVec is safe for
// concurrent use.
type HistogramVec struct {
	mu sync.Mutex
	h  map[string]*histogram
}

type histogram struct {
	counts [len(latencyBuckets) + 1]int64 // +1 for +Inf
	sum    float64
	total  int64
}

// Observe records one duration under the given label value.
func (v *HistogramVec) Observe(value string, d time.Duration) {
	secs := d.Seconds()
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.h == nil {
		v.h = make(map[string]*histogram)
	}
	h := v.h[value]
	if h == nil {
		h = &histogram{}
		v.h[value] = h
	}
	h.counts[sort.SearchFloat64s(latencyBuckets[:], secs)]++
	h.sum += secs
	h.total++
}

// Exposition is a /metrics body being written. Families appear in the
// order they are started. The zero value is an empty exposition.
type Exposition struct {
	b      strings.Builder
	name   string   // the current family
	labels []string // its label names
	head   string   // its HELP and TYPE lines, until its first series
}

// Counter starts a counter family with the given label names. It
// returns x, so that an unlabelled family's one series can follow:
// x.Counter(name, help).Int(n).
func (x *Exposition) Counter(name, help string, labels ...string) *Exposition {
	return x.family(name, help, "counter", labels)
}

// Gauge starts a gauge family; see Counter.
func (x *Exposition) Gauge(name, help string, labels ...string) *Exposition {
	return x.family(name, help, "gauge", labels)
}

// family starts a family. Its HELP and TYPE lines are written with its
// first series, so a family that gets no series renders nothing.
func (x *Exposition) family(name, help, typ string, labels []string) *Exposition {
	x.name, x.labels = name, labels
	x.head = "# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n"
	return x
}

// Int writes a series of the current family with the given label
// values, in the order of the family's label names, and an integer
// value.
func (x *Exposition) Int(v int64, values ...string) {
	x.series("", values, "", strconv.FormatInt(v, 10))
}

// Float writes a series of the current family with a %g value.
func (x *Exposition) Float(v float64, values ...string) {
	x.series("", values, "", formatFloat(v))
}

// CounterVec writes c as a counter family with the given label names.
func (x *Exposition) CounterVec(name, help string, c *CounterVec, labels ...string) {
	x.Counter(name, help, labels...)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, key := range sortedKeys(c.n) {
		x.Int(c.n[key], strings.Split(key, labelSep)...)
	}
}

// HistogramVec writes v as a histogram family labelled by label: per
// label value, cumulative buckets, then the sum and the count.
func (x *Exposition) HistogramVec(name, help, label string, v *HistogramVec) {
	x.family(name, help, "histogram", []string{label})
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, value := range sortedKeys(v.h) {
		h, values := v.h[value], []string{value}
		var cum int64
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			x.series("_bucket", values, formatFloat(ub), strconv.FormatInt(cum, 10))
		}
		x.series("_bucket", values, "+Inf", strconv.FormatInt(h.total, 10))
		x.series("_sum", values, "", formatFloat(h.sum))
		x.series("_count", values, "", strconv.FormatInt(h.total, 10))
	}
}

// Serve answers an HTTP request with the exposition.
func (x *Exposition) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, x.b.String())
}

// series writes one sample line of the current family. suffix extends
// the family name for a histogram's lines, and le is a bucket's bound.
func (x *Exposition) series(suffix string, values []string, le, v string) {
	b := &x.b
	b.WriteString(x.head)
	x.head = ""
	b.WriteString(x.name)
	b.WriteString(suffix)
	if len(values) > 0 {
		b.WriteByte('{')
		for i, val := range values {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(x.labels[i])
			b.WriteByte('=')
			b.WriteString(strconv.Quote(val))
		}
		if le != "" {
			b.WriteString(`,le="` + le + `"`)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(v)
	b.WriteByte('\n')
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
