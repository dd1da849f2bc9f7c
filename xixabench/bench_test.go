package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly ten samples beyond
		{999, 0.99, 990, false}, // nine beyond
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample supports no percentile")
	}
	var r report
	r.addPercentile("read_p99_ms", seq(500), 0.99)
	var out strings.Builder
	if err := r.write(&out, []string{"read_p99_ms"}); err == nil {
		t.Error("a p99 over 500 samples must not be reported as a value")
	}
	if !strings.Contains(out.String(), "unsupported") {
		t.Errorf("a p99 over 500 samples must print as unsupported, got %q", out.String())
	}
}

func TestStreamDeterminism(t *testing.T) {
	gen := func(seed int64) []string {
		b := &bench{seed: seed}
		var out []string
		sp := readTunedSpec(b)
		for _, st := range sp.warmup {
			out = append(out, st.Text)
		}
		for i := 0; i < 300; i++ {
			out = append(out, sp.closed[i%2].next().Text)
		}
		wm := writeMixSpec(b)
		for i := 0; i < 300; i++ {
			out = append(out, wm.closed[i%2].next().Text)
		}
		sm := shardedMixSpec(b)
		for i := 0; i < 300; i++ {
			out = append(out, sm.open[i%2].next().Text)
		}
		r := b.rng(rngDrift)
		for i := 0; i < 2; i++ { // the synthetic family needs a database; see TestDriftPhases
			for _, st := range newDriftPhase(r, nil, i).pass(r, 1) {
				out = append(out, st.Text)
			}
		}
		return out
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different statements")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("a different seed generated the same statements")
	}
	shapes := func(seed int64) map[string]int {
		m := make(map[string]int)
		for _, st := range newReadGen(rand.New(rand.NewSource(seed))).list(1000, tpoxShapes, tpoxWeights) {
			m[st.Class]++
		}
		return m
	}
	if !reflect.DeepEqual(shapes(1), shapes(2)) {
		t.Error("a seed must change literals and order, not the shape composition")
	}
}

func TestWriteStreamsAreDisjoint(t *testing.T) {
	owned := make(map[string]int)
	for s := 0; s < 4; s++ {
		w := newWriteGen(rand.New(rand.NewSource(int64(s))), s, 4)
		for i := 0; i < 2000; i++ {
			st := w.next()
			if st.Class != "upd" {
				continue
			}
			sym := st.Text[strings.Index(st.Text, `Symbol="`)+8:]
			sym = sym[:strings.Index(sym, `"`)]
			if o, ok := owned[sym]; ok && o != s {
				t.Fatalf("sessions %d and %d both update %s", o, s, sym)
			}
			owned[sym] = s
		}
	}
}

// sharded-mix's writers must leave SECURITY alone: its scans run beside
// them and are checked against the oracle, and a query racing an
// update can miss the updated document (README.md, "Known defect kept
// out of sharded-mix").
func TestShardedMixWritesNoSecurity(t *testing.T) {
	sp := shardedMixSpec(&bench{seed: 1})
	for s, w := range sp.writers {
		for i := 0; i < 2000; i++ {
			if st := w.next(); strings.Contains(st.Text, "SECURITY") {
				t.Fatalf("writer %d sent %s", s, st.Text)
			}
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"setup_s", "xixad.wire_us", "a-b.c_1", "9lives"} {
		if !validName(name) {
			t.Errorf("%q should be valid", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "a b", "a/b", "lat%", strings.Repeat("a", 65)} {
		if validName(name) {
			t.Errorf("%q should be invalid", name)
		}
	}
	seen := make(map[string]bool)
	for _, name := range append(append([]string(nil), endToEnd...), perLayer...) {
		if !validName(name) || seen[name] {
			t.Errorf("metric %q is invalid or repeated", name)
		}
		seen[name] = true
	}
	var r report
	r.add("bad name", "ms", 1, 1)
	if err := r.write(new(strings.Builder), nil); err == nil {
		t.Error("writing an invalid metric name must fail")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark %v", got, perLayer)
	}
	if got := names(spec.Workloads); !reflect.DeepEqual(got, workloadNames()) && len(got) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", got, workloadNames())
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}

func TestOracleCatchesCountMismatch(t *testing.T) {
	o, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	defer o.close()
	q := func(sym string, count int) sample {
		return sample{ok: true, count: count, stmt: Stmt{Class: "Q1",
			Text: fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "%s" return $sec`, sym)}}
	}
	var good report
	if err := o.checkReads([]sample{q("SYM00042", 1), q("SYM99999", 0)}, &good); err != nil {
		t.Fatal(err)
	}
	if len(good.problems) != 0 || good.failed != 0 {
		t.Fatalf("correct counts flagged: %v", good.problems)
	}
	var bad report
	if err := o.checkReads([]sample{q("SYM00042", 1), q("SYM00043", 2)}, &bad); err != nil {
		t.Fatal(err)
	}
	if len(bad.problems) != 1 || bad.failed != 1 {
		t.Fatalf("a planted count mismatch must fail exactly one statement, got failed=%d %v", bad.failed, bad.problems)
	}
	if !strings.Contains(bad.problems[0], "SYM00043") {
		t.Errorf("the problem should name the statement: %s", bad.problems[0])
	}
}

func TestDriftPhases(t *testing.T) {
	o, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	defer o.close()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < driftFamilies; i++ {
		p := newDriftPhase(r, o.srv.DB(), i)
		distinct := make(map[string]bool)
		for _, st := range p.pool {
			distinct[st.Text] = true
		}
		if len(distinct) == 0 || len(distinct) >= 256 {
			t.Errorf("phase %d (%s) has %d distinct statements; the capture ring holds 256", i, p.family, len(distinct))
		}
	}
}
