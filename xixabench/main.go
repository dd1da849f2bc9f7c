// Command xixabench is xixa's end-to-end benchmark. It launches the
// xixad daemon as a separate process, drives it over its TCP line
// protocol from this one load-generator process (at most two
// connections at a time), checks every result against an in-process
// oracle on the same data, and prints the end-to-end metrics. With
// -trace 1 it also replays the same seeded stream in-process through
// the public calls xixad makes and prints per-layer metrics instead.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash xixabench/run.sh --workload read-tuned --seed 1 --seconds 8 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md for the
// workloads, the metrics and the layer each one explains.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer are the metric names the result object carries
// with -trace 0 and -trace 1; they mirror BENCHMARK.json. The report
// prints every end-to-end metric; tuned_speedup, the latencies,
// throughput, CPU per statement and tune time are not carried, because
// across runs on a shared 2-CPU box they spread too far for the largest
// bound a carried metric may have (README.md).
var endToEnd = []string{"setup_s", "tuned_cpu_speedup", "peak_rss_mb"}

var perLayer = []string{
	"xixad.wire_us", "xquery.parse_us", "xmltree.serialize_us",
	"server.execute_us", "server.self_us", "server.commit_us", "server.conflict_retries_per_commit", "server.tune_ms",
	"workload.capture_statements",
	"optimizer.plan_us", "optimizer.whatif_calls", "optimizer.enumerate_calls",
	"core.realized_speedup_min",
	"engine.index_scan_us", "engine.verify_us", "engine.examined_per_result",
	"xindex.entries_touched_per_write", "xindex.builds", "xindex.drops", "xindex.catchup_events",
	"storage.publish_wait_us_per_commit", "storage.publish_lag_peak",
	"wal.fsync_ms", "wal.fsyncs_per_commit", "wal.records_per_fsync", "wal.bytes_per_commit",
	"shard.pinned_share", "shard.fanout_us", "shard.broadcasts",
	"obs.trace_overhead", "loadgen.late_p99_ms",
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: read-tuned, write-mix, advise-drift or sharded-mix")
		seed    = flag.Int64("seed", 1, "seed of the generated statement stream")
		seconds = flag.Int("seconds", 10, "measured time of one run")
		trace   = flag.Int("trace", 0, "1: also replay in-process and report per-layer metrics")
		xixad   = flag.String("xixad", ".bench_build/xixad", "xixad binary")
		workdir = flag.String("workdir", ".bench_build", "directory for the durable workloads' WAL")
	)
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("need -seconds >= 1 and -trace 0 or 1")
	}
	if _, err := os.Stat(*xixad); err != nil {
		fatalf("xixad binary: %v", err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatalf("work dir: %v", err)
	}
	defer os.RemoveAll(dir)

	b := &bench{
		xixad:   *xixad,
		dir:     dir,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		rep:     &report{},
	}
	b.setups = 5
	if b.traced {
		// The traced run reports no end-to-end numbers; one setup
		// serves its wire-side comparison.
		b.setups = 1
	}
	fmt.Printf("xixabench %s seed=%d seconds=%d trace=%d scale=%d GOMAXPROCS=%d %s\n",
		*name, *seed, *seconds, *trace, Scale, runtime.GOMAXPROCS(0), runtime.Version())
	if err := spec(b); err != nil {
		os.RemoveAll(dir)
		fatalf("%s: %v", *name, err)
	}
	keep := endToEnd
	if b.traced {
		keep = perLayer
	}
	if err := b.rep.write(os.Stdout, keep); err != nil {
		os.RemoveAll(dir)
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xixabench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bench is one run's shared state.
type bench struct {
	xixad   string
	dir     string
	seed    int64
	seconds time.Duration
	traced  bool
	setups  int
	rep     *report
	walSeq  int
}

// rng derives an independent generator for one stream of the run, so
// adding a stream never shifts another stream's statements.
func (b *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.seed*1_000_003 + stream))
}

// freshWALDir returns an empty directory for one durable daemon.
func (b *bench) freshWALDir() (string, error) {
	b.walSeq++
	d := filepath.Join(b.dir, fmt.Sprintf("wal-%d", b.walSeq))
	return d, os.MkdirAll(d, 0o755)
}

// count tallies samples into the run's attempted/failed totals. ERR
// replies are failures: overload rejects and exhausted conflict
// retries included.
func (b *bench) count(samples []sample) {
	for _, s := range samples {
		b.rep.attempted++
		if !s.ok {
			b.rep.failed++
		}
	}
}

func latenciesMs(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && keep(s) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func isRead(s sample) bool    { return !s.stmt.Write }
func isWrite(s sample) bool   { return s.stmt.Write }
func everySample(sample) bool { return true }

func flatten(ss [][]sample) []sample {
	var out []sample
	for _, s := range ss {
		out = append(out, s...)
	}
	return out
}
