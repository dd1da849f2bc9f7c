package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples and whether
// the sample supports it under the percentile rule.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int // samples behind the value; 0 for counts and ratios of counts

	unsupported bool // a percentile the sample cannot support
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(name string) bool { return metricNameRE.MatchString(name) }

// report collects a run's metrics and failures.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string // correctness failures; any makes the run incorrect
}

func (r *report) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, N: n})
}

// addPercentile adds the q-quantile of samples. A sample too small for
// the percentile rule is printed as unsupported instead; such a metric
// cannot be one the result object carries (write refuses it).
func (r *report) addPercentile(name string, samples []float64, q float64) {
	v, ok := percentile(samples, q)
	r.metrics = append(r.metrics, metric{Name: name, Unit: "ms", Value: v, N: len(samples), unsupported: !ok})
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// write prints the human-readable lines, then the result object as the
// last line. Only the metrics named in keep go into the object; every
// metric is printed above it.
func (r *report) write(w io.Writer, keep []string) error {
	for _, m := range r.metrics {
		if !validName(m.Name) {
			return fmt.Errorf("invalid metric name %q", m.Name)
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf(" (n=%d)", m.N)
		}
		if m.unsupported {
			fmt.Fprintf(w, "%-40s %14s %-6s%s: fewer than %d samples beyond it\n", m.Name, "unsupported", m.Unit, n, minBeyond)
			continue
		}
		fmt.Fprintf(w, "%-40s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
	out := jsonResult{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonValue, len(keep)),
	}
	for _, name := range keep {
		m, ok := r.get(name)
		if !ok || m.unsupported {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		out.Metrics[name] = jsonValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
