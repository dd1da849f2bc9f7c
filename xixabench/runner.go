package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"xixa/internal/server"
	"xixa/internal/tpox"
	"xixa/internal/xquery"
)

// Fixed open-loop offered rates, statements/s: a fifth to two fifths of
// each workload's closed-loop throughput at the commit that defined the
// benchmark (baseline.json records the measurement). Half, the usual
// choice, queued so deeply on this 2-CPU box that open-loop latency
// swung by 2x between identical runs.
const (
	readTunedRate   = 500
	writeMixRate    = 250
	adviseDriftRate = 400
	shardedMixRate  = 400
)

// Phase lengths as shares of -seconds; the rest covers the write probe
// and the verification queries.
const (
	closedShare = 0.45
	openShare   = 0.45
)

// measureWindows is how many consecutive windows a closed-loop phase is
// cut into. Throughput, CPU per statement and the p50s are medians over
// windows, so a stall of the shared machine that hits one or two
// windows does not move them.
const measureWindows = 5

// probeWrites is the length of the serial write probe the read-only
// workloads run after their read phases, enough for a p99 under the
// percentile rule.
const probeWrites = 1100

// readListLen is the length of each session's read list, cycled: with
// Zipf-drawn keys it holds more distinct statements than the 256-entry
// capture ring.
const readListLen = 500

var workloads = map[string]func(*bench) error{
	"read-tuned":   readTuned,
	"write-mix":    writeMix,
	"advise-drift": adviseDrift,
	"sharded-mix":  shardedMix,
}

// warmupRNG drives the set-up warm-up passes. It does not depend on
// -seed: set-up is a fixed training workload, so setup_s, tune_ms and
// tuned_speedup vary only with the program, not with the measured
// stream.
func warmupRNG() *rand.Rand { return rand.New(rand.NewSource(rngWarmup)) }

// Stream numbers for bench.rng.
const (
	rngWarmup = iota + 1
	rngOpen
	rngProbe
	rngDrift
	rngSession // + session number
)

func readTuned(b *bench) error { return runTuned(b, func() tunedSpec { return readTunedSpec(b) }) }

func readTunedSpec(b *bench) tunedSpec {
	g := newReadGen(warmupRNG())
	sp := tunedSpec{
		warmup:     g.everyShape(tpoxShapes, 20),
		openRate:   readTunedRate,
		probe:      newWriteGen(b.rng(rngProbe), 0, 1),
		readOracle: true,
	}
	// The open loop replays the closed-loop sessions' lists, so the
	// untuned oracle answers each distinct statement once.
	for s := 0; s < 2; s++ {
		list := newReadGen(b.rng(rngSession+int64(s))).list(readListLen, tpoxShapes, tpoxWeights)
		sp.closed = append(sp.closed, &listStream{stmts: list})
		sp.open = append(sp.open, &listStream{stmts: list})
	}
	return sp
}

// writeMix: four writer sessions own disjoint keys; two drive the
// closed loop, two the open loop. Set-up trains on every TPoX shape,
// as read-tuned's does, so the writes maintain the indexes a tuned
// TPoX database carries, not only the key indexes its point reads use.
func writeMix(b *bench) error { return runTuned(b, func() tunedSpec { return writeMixSpec(b) }) }

func writeMixSpec(b *bench) tunedSpec {
	g := newReadGen(warmupRNG())
	sp := tunedSpec{
		durable:  true,
		warmup:   g.everyShape(tpoxShapes, 20),
		openRate: writeMixRate,
	}
	for s := 0; s < 4; s++ {
		r := b.rng(rngSession + int64(s))
		w := newWriteGen(r, s, 4)
		st := &mixStream{r: r, reads: keyedReadGen{w: w}, writes: w, writePct: 50}
		sp.writers = append(sp.writers, w)
		if s < 2 {
			sp.closed = append(sp.closed, st)
		} else {
			sp.open = append(sp.open, st)
		}
	}
	return sp
}

// shardedMix: key-pinned point reads, unkeyed scans and keyed order
// inserts and deletes against a 4-shard daemon. Reads never match the
// inserted orders (see writeGen), so they are checked against the
// untuned oracle. The writes leave SECURITY alone: xixad runs queries
// on live indexes without a snapshot, and an update removes a
// document's index entries before it adds the new ones, so a scan
// racing a Yield update can miss a document it matches before and
// after (README.md, "Known defect kept out of sharded-mix").
func shardedMix(b *bench) error { return runTuned(b, func() tunedSpec { return shardedMixSpec(b) }) }

func shardedMixSpec(b *bench) tunedSpec {
	shapes := []int{1, 5, 7, 10, 3, 6, 8, 12}
	weights := []int{15, 15, 15, 15, 10, 10, 10, 10}
	g := newReadGen(warmupRNG())
	sp := tunedSpec{
		args:       []string{"-shards", "4"},
		sharded:    true,
		warmup:     g.everyShape(shapes, 20),
		openRate:   shardedMixRate,
		readOracle: true,
	}
	for s := 0; s < 4; s++ {
		r := b.rng(rngSession + int64(s))
		w := newWriteGen(r, s, 4)
		w.ordersOnly = true
		reads := &listStream{stmts: newReadGen(r).list(readListLen, shapes, weights)}
		st := &mixStream{r: r, reads: reads, writes: w, writePct: 30}
		sp.writers = append(sp.writers, w)
		if s < 2 {
			sp.closed = append(sp.closed, st)
		} else {
			sp.open = append(sp.open, st)
		}
	}
	return sp
}

// tunedSpec is a workload tuned during setup: warm-up pass, two \tune
// rounds, the warm-up pass again on the built indexes, then a
// closed-loop phase and an open-loop phase.
type tunedSpec struct {
	args       []string // xixad flags
	durable    bool     // -wal-dir (fresh per setup) -sync always
	sharded    bool
	warmup     []Stmt
	closed     []stream // one closed-loop session each
	open       []stream // one open-loop connection each
	openRate   float64
	writers    []*writeGen // write streams of closed then open, in order
	probe      *writeGen   // serial write probe (workloads without writes)
	readOracle bool        // reads run on data no write changes
}

// setupResult is one setup's measurements.
type setupResult struct {
	seconds    float64
	tuneMs     []float64
	untuned    []sample
	tuned      []sample
	untunedCPU time.Duration // xixad CPU time over the untuned pass
	tunedCPU   time.Duration // and over the tuned passes
}

// cpuRatio is xixad's CPU time per statement untuned divided by that
// tuned: the work the indexes saved, with the round trip, wakeups and
// stolen time of a shared machine left out.
func (r setupResult) cpuRatio() float64 {
	return perStmt(r.untunedCPU, len(r.untuned)) / perStmt(r.tunedCPU, len(r.tuned))
}

func perStmt(cpu time.Duration, n int) float64 { return us(cpu) / float64(n) }

// tunedPasses is how many times a set-up sends the warm-up statements
// after tuning; only the first counts toward setup_s. A tuned pass
// takes xixad tens of milliseconds of CPU, about what one garbage
// collection cycle of its heap takes, so a single pass would measure
// whether a cycle fell into it.
const tunedPasses = 4

// setupOnce launches xixad and brings it to the measured phase.
func (b *bench) setupOnce(sp tunedSpec) (*daemon, *conn, setupResult, error) {
	var res setupResult
	args := append([]string(nil), sp.args...)
	if sp.durable {
		dir, err := b.freshWALDir()
		if err != nil {
			return nil, nil, res, err
		}
		args = append(args, "-wal-dir", dir, "-sync", "always")
	}
	t0 := time.Now()
	d, err := startDaemon(b.xixad, args...)
	if err != nil {
		return nil, nil, res, err
	}
	fail := func(err error) (*daemon, *conn, setupResult, error) {
		d.kill()
		return nil, nil, res, err
	}
	c, err := dial(d.addr)
	if err != nil {
		return fail(err)
	}
	pass := func() ([]sample, error) { return serialPass(c, sp.warmup) }
	w, err := measureWindow(d, pass)
	if err != nil {
		return fail(err)
	}
	res.untuned, res.untunedCPU = w.samples, w.cpu
	for r := 0; r < setupTuneRounds; r++ {
		ms, err := tune(c)
		if err != nil {
			return fail(err)
		}
		res.tuneMs = append(res.tuneMs, ms)
	}
	for i := 0; i < tunedPasses; i++ {
		w, err := measureWindow(d, pass)
		if err != nil {
			return fail(err)
		}
		res.tuned = append(res.tuned, w.samples...)
		res.tunedCPU += w.cpu
		if i == 0 {
			res.seconds = time.Since(t0).Seconds()
		}
	}
	return d, c, res, nil
}

// setupTuneRounds is the number of \tune rounds in a set-up: the
// build hysteresis needs two.
const setupTuneRounds = 2

// tune runs one \tune round and returns its client-side time.
func tune(c *conn) (float64, error) {
	t := time.Now()
	rep, err := c.do(`\tune`, false)
	if err != nil {
		return 0, err
	}
	if !rep.ok {
		return 0, fmt.Errorf("tune: %s", rep.line)
	}
	return ms(time.Since(t)), nil
}

// indexSet lists the daemon's materialized index definitions, sorted.
func indexSet(c *conn) ([]string, error) {
	rep, err := c.do(`\indexes`, true)
	if err != nil {
		return nil, err
	}
	if !rep.ok {
		return nil, fmt.Errorf("indexes: %s", rep.line)
	}
	var out []string
	for _, line := range rep.body {
		if i := strings.Index(line, "  ("); i >= 0 {
			line = line[:i]
		}
		out = append(out, line)
	}
	sort.Strings(out)
	return out, nil
}

// runTuned runs a tuned workload. mk builds the workload's streams;
// the traced run calls it again for a fresh copy of the same streams.
func runTuned(b *bench, mk func() tunedSpec) error {
	sp := mk()
	var setups []setupResult
	var d *daemon
	var c *conn
	for i := 0; i < b.setups; i++ {
		var res setupResult
		var err error
		d, c, res, err = b.setupOnce(sp)
		if err != nil {
			return fmt.Errorf("setup %d: %w", i+1, err)
		}
		setups = append(setups, res)
		if i < b.setups-1 {
			c.close()
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	defer d.kill()
	last := setups[len(setups)-1]
	indexes, err := indexSet(c)
	if err != nil {
		return err
	}

	settle()
	windows, closed, err := closedWindows(d, sp.closed, time.Duration(closedShare*float64(b.seconds)))
	if err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	settle()
	open, err := openLoop(d.addr, sp.open, sp.openRate, time.Duration(openShare*float64(b.seconds)))
	if err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	var probe []sample
	if sp.probe != nil {
		stmts := make([]Stmt, probeWrites)
		for i := range stmts {
			stmts[i] = sp.probe.next()
		}
		if probe, err = serialPass(c, stmts); err != nil {
			return fmt.Errorf("write probe: %w", err)
		}
	}
	writers := sp.writers
	if sp.probe != nil {
		writers = []*writeGen{sp.probe}
	}
	var verify []sample
	for _, w := range writers {
		v, err := serialPass(c, w.verify())
		if err != nil {
			return fmt.Errorf("verification queries: %w", err)
		}
		verify = append(verify, v...)
	}
	retries := daemonRetries(c)
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	c.close()
	if err := d.stop(); err != nil {
		return err
	}

	var warm []sample
	for _, s := range setups {
		warm = append(warm, s.untuned...)
		warm = append(warm, s.tuned...)
	}
	closedAll := flatten(closed)
	for _, ss := range [][]sample{warm, closedAll, open.samples, probe, verify} {
		b.count(ss)
	}

	// Correctness.
	t0 := time.Now()
	o, err := newOracle()
	if err != nil {
		return err
	}
	defer o.close()
	readSamples := warm
	if sp.readOracle {
		readSamples = append(append(readSamples, closedAll...), open.samples...)
	}
	if err := o.checkReads(readSamples, b.rep); err != nil {
		return err
	}
	streams := append(append([][]sample(nil), closed...), open.perStream...)
	if sp.probe != nil {
		streams = [][]sample{probe}
	}
	if err := o.replay(streams, b.rep); err != nil {
		return err
	}
	if err := o.checkState(verify, b.rep); err != nil {
		return err
	}
	fmt.Printf("oracle: %d statements checked in %.1fs\n", len(readSamples)+len(verify), time.Since(t0).Seconds())

	// End-to-end metrics.
	var setupS, tuneMs, speedups, cpuRatios []float64
	for _, s := range setups {
		setupS = append(setupS, s.seconds)
		tuneMs = append(tuneMs, mean(s.tuneMs))
		speedups = append(speedups, classGeomean(s.untuned, s.tuned))
		cpuRatios = append(cpuRatios, s.cpuRatio())
	}
	writeWindows := windows
	if sp.probe != nil {
		writeWindows = chunks(probe, measureWindows)
	}
	reads := latenciesMs(closedAll, isRead)
	r := b.rep
	r.add("setup_s", "s", median(setupS), len(setupS))
	b.addWindowed(windows, writeWindows)
	r.addPercentile("read_p99_ms", reads, 0.99)
	r.addPercentile("write_p99_ms", latenciesMs(flattenWindows(writeWindows), isWrite), 0.99)
	openLat := latenciesMs(open.samples, everySample)
	r.addPercentile("open_p50_ms", openLat, 0.5)
	r.addPercentile("open_p99_ms", openLat, 0.99)
	r.add("tune_ms", "ms", median(tuneMs), setupTuneRounds*len(tuneMs))
	r.add("tuned_speedup", "x", geomean(speedups), len(speedups))
	r.add("tuned_cpu_speedup", "x", geomean(cpuRatios), len(cpuRatios))
	r.add("peak_rss_mb", "MB", rss, 0)
	r.add("error_rate", "ratio", float64(r.failed)/float64(r.attempted), r.attempted)
	b.loadgenHealth(open)

	fmt.Printf("indexes after setup: %d\n", len(indexes))
	for _, ix := range indexes {
		fmt.Printf("  %s\n", ix)
	}
	fmt.Printf("conflict retries over the wire: %s\n", retries)
	fmt.Printf("per set-up: tuned_speedup %.2f, tuned_cpu_speedup %.2f\n", speedups, cpuRatios)
	printClassSpeedups(last.untuned, last.tuned)
	if b.traced {
		return b.tracedRun(mk(), indexes, reads)
	}
	return nil
}

// settle collects the generator's garbage before a measured phase, so
// its own collector does not compete with xixad for the two CPUs.
func settle() { runtime.GC() }

// loadgenHealth records the open-loop generator's lateness and CPU use
// and marks the run invalid when the generator, not the daemon, limited
// what was measured.
func (b *bench) loadgenHealth(open openResult) {
	late, _ := percentile(open.lateMs, 0.99)
	b.rep.add("loadgen.late_p99_ms", "ms", late, len(open.lateMs))
	b.rep.add("loadgen.cpu_cores", "cores", open.cpuCores, 0)
	if late > 20 {
		b.rep.problem("open-loop generator ran %.1f ms late at p99: the run is invalid, not slow", late)
	}
	if open.cpuCores > 0.9 {
		b.rep.problem("open-loop generator used %.2f cores: the run is invalid, not slow", open.cpuCores)
	}
}

// daemonRetries reads the daemon's conflict retry counter from \stats.
func daemonRetries(c *conn) string {
	rep, err := c.do(`\stats`, true)
	if err != nil || !rep.ok {
		return "unavailable"
	}
	for _, line := range rep.body {
		if strings.HasPrefix(line, "txns:") {
			return line
		}
	}
	return "not reported"
}

// printClassSpeedups prints each statement class's untuned and tuned
// median and their ratio.
func printClassSpeedups(untuned, tuned []sample) {
	for _, cs := range classSpeedups(untuned, tuned) {
		fmt.Printf("class %-4s untuned %8.3f ms  tuned %8.3f ms  realized speedup %7.2f\n", cs.class, cs.untuned, cs.tuned, cs.ratio)
	}
}

// classGeomean is the geometric mean over statement classes of each
// class's untuned median latency divided by its tuned median.
func classGeomean(untuned, tuned []sample) float64 {
	var ratios []float64
	for _, cs := range classSpeedups(untuned, tuned) {
		ratios = append(ratios, cs.ratio)
	}
	return geomean(ratios)
}

type classSpeedup struct {
	class                 string
	untuned, tuned, ratio float64
}

func classSpeedups(untuned, tuned []sample) []classSpeedup {
	byClass := func(ss []sample) map[string][]float64 {
		m := make(map[string][]float64)
		for _, s := range ss {
			if s.ok {
				m[s.stmt.Class] = append(m[s.stmt.Class], ms(s.lat))
			}
		}
		return m
	}
	u, t := byClass(untuned), byClass(tuned)
	var out []classSpeedup
	for class, us := range u {
		ts, ok := t[class]
		if !ok {
			continue
		}
		cs := classSpeedup{class: class, untuned: median(us), tuned: median(ts)}
		cs.ratio = cs.untuned / cs.tuned
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

// Advise-drift pass lengths: the untuned passes feed the capture; the
// tuned pass is long enough for a p99 across three phases, and for
// xixad's CPU time over it to outweigh a garbage collection cycle.
const (
	driftPass      = 2
	driftTunedPass = 16
	driftPhases    = 3
)

// adviseDrift cycles query families so the advisor has to build for
// each new family: pass, \tune, pass, \tune (the build round under
// hysteresis), then a measured pass on the built indexes.
func adviseDrift(b *bench) error {
	var setupS []float64
	var d *daemon
	for i := 0; i < b.setups; i++ {
		t0 := time.Now()
		var err error
		if d, err = startDaemon(b.xixad); err != nil {
			return err
		}
		c, err := dial(d.addr)
		if err != nil {
			d.kill()
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		c.close()
		if i < b.setups-1 {
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	defer d.kill()
	c, err := dial(d.addr)
	if err != nil {
		return err
	}

	oracleDB, err := tpox.NewDatabase(Scale)
	if err != nil {
		return err
	}
	// The families' statement pools are fixed (phase i draws from seed
	// i); -seed orders the passes, the open loop and the write probe.
	dr := b.rng(rngDrift)
	phases := make([]driftPhase, driftPhases)
	passes := make([][3][]Stmt, driftPhases)
	for i := range phases {
		phases[i] = newDriftPhase(rand.New(rand.NewSource(int64(i+1))), oracleDB, i)
		passes[i] = [3][]Stmt{phases[i].pass(dr, driftPass), phases[i].pass(dr, driftPass), phases[i].pass(dr, driftTunedPass)}
	}

	settle()
	var all, tunedAll []sample
	var tuneMs, speedups []float64
	var tunedWindows []window
	var untunedCPU, tunedCPU time.Duration
	var untunedN, tunedN int
	wireIndexes := make([][]string, driftPhases)
	phaseSamples := make([][3][]sample, driftPhases)
	phaseWindows := make([][3]window, driftPhases)
	for i := range phases {
		var phaseTune []float64
		before, err := indexSet(c)
		if err != nil {
			return err
		}
		firstRoundIdle := false
		for p := 0; p < 3; p++ {
			w, err := measureWindow(d, func() ([]sample, error) { return serialPass(c, passes[i][p]) })
			if err != nil {
				return err
			}
			phaseSamples[i][p] = w.samples
			phaseWindows[i][p] = w
			all = append(all, w.samples...)
			if p == 2 {
				tunedWindows = append(tunedWindows, w)
				tunedAll = append(tunedAll, w.samples...)
				break
			}
			ms, err := tune(c)
			if err != nil {
				return err
			}
			phaseTune = append(phaseTune, ms)
			if p == 0 {
				after, err := indexSet(c)
				if err != nil {
					return err
				}
				firstRoundIdle = strings.Join(after, "\n") == strings.Join(before, "\n")
			}
		}
		// untuned is the phase's passes before its indexes exist: the
		// first, and the second too when the first \tune round built
		// and dropped nothing, as the build hysteresis makes it do.
		untuned := phaseSamples[i][0]
		if firstRoundIdle {
			untuned = append(append([]sample(nil), untuned...), phaseSamples[i][1]...)
		}
		untunedCPU += phaseWindows[i][0].cpu
		if firstRoundIdle {
			untunedCPU += phaseWindows[i][1].cpu
		}
		untunedN += len(untuned)
		tunedCPU += phaseWindows[i][2].cpu
		tunedN += len(phaseSamples[i][2])
		tuneMs = append(tuneMs, mean(phaseTune))
		speedups = append(speedups, classGeomean(untuned, phaseSamples[i][2]))
		if wireIndexes[i], err = indexSet(c); err != nil {
			return err
		}
		fmt.Printf("phase %d (%s): %d indexes, speedup %.2f\n", i+1, phases[i].family, len(wireIndexes[i]), speedups[i])
		printClassSpeedups(untuned, phaseSamples[i][2])
	}

	// The open loop offers the order-customer family, whose indexes
	// the last phase leaves in place: synthetic pools differ too much
	// between seeds for a steady fixed-rate number.
	og := b.rng(rngOpen)
	var openStreams []stream
	for s := 0; s < 2; s++ {
		openStreams = append(openStreams, &listStream{stmts: phases[1].pass(og, 12)})
	}
	settle()
	open, err := openLoop(d.addr, openStreams, adviseDriftRate, time.Duration(openShare*float64(b.seconds)))
	if err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	pw := newWriteGen(b.rng(rngProbe), 0, 1)
	stmts := make([]Stmt, probeWrites)
	for i := range stmts {
		stmts[i] = pw.next()
	}
	probe, err := serialPass(c, stmts)
	if err != nil {
		return err
	}
	verify, err := serialPass(c, pw.verify())
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	c.close()
	if err := d.stop(); err != nil {
		return err
	}
	for _, ss := range [][]sample{all, open.samples, probe, verify} {
		b.count(ss)
	}

	// Correctness: read counts against the untuned oracle, the index
	// set after every phase against an in-process advisor fed the same
	// captured statements, and the write probe's final state.
	o, err := newOracle()
	if err != nil {
		return err
	}
	defer o.close()
	if err := o.checkReads(append(append([]sample(nil), all...), open.samples...), b.rep); err != nil {
		return err
	}
	shadow, err := shadowIndexSets(phaseSamples)
	if err != nil {
		return err
	}
	for i := range phases {
		if strings.Join(shadow[i], "\n") != strings.Join(wireIndexes[i], "\n") {
			mismatch(b.rep, "phase %d: xixad built %v, the in-process advisor %v", i+1, wireIndexes[i], shadow[i])
		}
	}
	if err := o.replay([][]sample{probe}, b.rep); err != nil {
		return err
	}
	if err := o.checkState(verify, b.rep); err != nil {
		return err
	}

	reads := latenciesMs(tunedAll, everySample)
	openLat := latenciesMs(open.samples, everySample)
	r := b.rep
	r.add("setup_s", "s", median(setupS), len(setupS))
	b.addWindowed(tunedWindows, chunks(probe, measureWindows))
	r.addPercentile("read_p99_ms", reads, 0.99)
	r.addPercentile("write_p99_ms", latenciesMs(probe, everySample), 0.99)
	r.addPercentile("open_p50_ms", openLat, 0.5)
	r.addPercentile("open_p99_ms", openLat, 0.99)
	r.add("tune_ms", "ms", median(tuneMs), 2*len(tuneMs))
	r.add("tuned_speedup", "x", geomean(speedups), len(speedups))
	// Over all phases at once: a phase of point lookups takes xixad
	// too little CPU when tuned to be measured on its own.
	r.add("tuned_cpu_speedup", "x", perStmt(untunedCPU, untunedN)/perStmt(tunedCPU, tunedN), driftPhases)
	r.add("peak_rss_mb", "MB", rss, 0)
	r.add("error_rate", "ratio", float64(r.failed)/float64(r.attempted), r.attempted)
	b.loadgenHealth(open)
	if b.traced {
		return b.tracedDrift(passes, wireIndexes, reads)
	}
	return nil
}

// shadowIndexSets feeds an in-process server's capture the statements
// xixad captured (every successful one, in order) and runs TuneOnce
// where the drift cycle sent \tune. It returns the index set after each
// phase.
func shadowIndexSets(phaseSamples [][3][]sample) ([][]string, error) {
	db, err := tpox.NewDatabase(Scale)
	if err != nil {
		return nil, err
	}
	srv := server.New(db, server.Config{})
	defer srv.Close()
	out := make([][]string, len(phaseSamples))
	for i, ph := range phaseSamples {
		for p, ss := range ph {
			for _, s := range ss {
				if !s.ok {
					continue
				}
				stmt, err := xquery.Parse(s.stmt.Text)
				if err != nil {
					return nil, err
				}
				srv.Capture().Observe(stmt, 1)
			}
			if p < 2 {
				if _, err := srv.TuneOnce(); err != nil {
					return nil, err
				}
			}
		}
		out[i] = catalogSet(srv)
	}
	return out, nil
}

// catalogSet renders a server's catalog the way \indexes does, sorted.
func catalogSet(srv *server.Server) []string {
	var out []string
	for _, def := range srv.Catalog().Definitions() {
		out = append(out, def.String())
	}
	sort.Strings(out)
	return out
}

// window is one slice of a measured phase.
type window struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration // daemon CPU time spent in it
}

// measureWindow runs one slice of work and records its wall and daemon
// CPU time.
func measureWindow(d *daemon, run func() ([]sample, error)) (window, error) {
	cpu0, err := d.cpuTime()
	if err != nil {
		return window{}, err
	}
	t0 := time.Now()
	ss, err := run()
	if err != nil {
		return window{}, err
	}
	w := window{samples: ss, elapsed: time.Since(t0)}
	cpu1, err := d.cpuTime()
	w.cpu = cpu1 - cpu0
	return w, err
}

// closedWindows runs the closed loop as measureWindows consecutive
// windows, each on fresh connections; the streams carry on across
// windows. It returns the windows and each stream's samples in order.
func closedWindows(d *daemon, streams []stream, dur time.Duration) ([]window, [][]sample, error) {
	perStream := make([][]sample, len(streams))
	var windows []window
	for i := 0; i < measureWindows; i++ {
		w, err := measureWindow(d, func() ([]sample, error) {
			out, _, err := closedLoop(d.addr, streams, dur/measureWindows)
			for k := range out {
				perStream[k] = append(perStream[k], out[k]...)
			}
			return flatten(out), err
		})
		if err != nil {
			return nil, nil, err
		}
		windows = append(windows, w)
	}
	return windows, perStream, nil
}

// chunks cuts a serial pass into n windows of consecutive statements;
// only their samples are used.
func chunks(ss []sample, n int) []window {
	out := make([]window, n)
	for i := range out {
		out[i].samples = ss[i*len(ss)/n : (i+1)*len(ss)/n]
	}
	return out
}

func flattenWindows(ws []window) []sample {
	var out []sample
	for _, w := range ws {
		out = append(out, w.samples...)
	}
	return out
}

// addWindowed reports throughput, daemon CPU per statement and the read
// p50 as medians over the closed-loop windows, and the write p50 as the
// median over the write windows.
func (b *bench) addWindowed(windows, writeWindows []window) {
	var tput, cpu, readP50, writeP50 []float64
	n, nr, nw := 0, 0, 0
	for _, w := range windows {
		n += len(w.samples)
		tput = append(tput, float64(len(w.samples))/w.elapsed.Seconds())
		cpu = append(cpu, us(w.cpu)/float64(len(w.samples)))
		reads := latenciesMs(w.samples, isRead)
		nr += len(reads)
		readP50 = append(readP50, b.windowP50("read_p50_ms", reads))
	}
	for _, w := range writeWindows {
		writes := latenciesMs(w.samples, isWrite)
		nw += len(writes)
		writeP50 = append(writeP50, b.windowP50("write_p50_ms", writes))
	}
	b.rep.add("throughput_ops", "1/s", median(tput), n)
	b.rep.add("server_cpu_us_per_op", "us", median(cpu), n)
	b.rep.add("read_p50_ms", "ms", median(readP50), nr)
	b.rep.add("write_p50_ms", "ms", median(writeP50), nw)
}

// windowP50 is one window's median, checked against the percentile rule.
func (b *bench) windowP50(name string, samples []float64) float64 {
	v, ok := percentile(samples, 0.5)
	if !ok {
		b.rep.problem("%s: a window of %d samples cannot support its median", name, len(samples))
	}
	return v
}
