package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"xixa/internal/obs"
	"xixa/internal/server"
	"xixa/internal/shard"
	"xixa/internal/storage"
	"xixa/internal/tpox"
	"xixa/internal/wal"
	"xixa/internal/xmltree"
	"xixa/internal/xquery"
)

// The traced run replays a workload in-process, serially, through the
// calls xixad's connection loop makes: xquery.Parse, ExecuteStmt, and
// SerializeString of up to five returned documents. Benchmark-side
// spans wrap those calls; the phase spans inside ExecuteStmt come from
// the program's own tracer (sampling every statement), drained after
// each statement by trace ID. Counters are deltas of public counters.

// tracedPerStream is how many statements of each closed-loop stream the
// traced run replays.
const tracedPerStream = 1500

// phaseNames are the ExecuteStmt sub-phases the program's tracer
// records.
var phaseNames = []string{"optimize", "index scan", "xpath verify", "commit"}

// executor is a session on a server or a cluster.
type executor interface {
	ExecuteStmt(*xquery.Statement) (*server.Result, error)
	Close()
}

// backend is the in-process equivalent of one xixad configuration.
type backend struct {
	srv     *server.Server  // unsharded
	cluster *shard.Cluster  // -shards N
	walDir  string          // durable
	tracers []*obs.Tracer   // every tracer a statement can record into
	regs    []*obs.Registry // registries whose counters are summed
	seen    map[*obs.Tracer]uint64
}

// tpoxKeys are the partition keys xixad gives the TPoX tables.
func tpoxKeys() map[string]string {
	return map[string]string{
		tpox.TableSecurity: "/Security/Symbol",
		tpox.TableOrders:   "/Order/@ID",
		tpox.TableCustAcc:  "/Customer/@id",
	}
}

// newBackend builds the server, durable server or cluster that xixad's
// flags for the workload produce.
func (b *bench) newBackend(sp tunedSpec) (*backend, error) {
	be := &backend{seen: make(map[*obs.Tracer]uint64)}
	switch {
	case sp.sharded:
		c, err := shard.NewCluster(shard.Config{Shards: 4, Keys: tpoxKeys()})
		if err != nil {
			return nil, err
		}
		be.cluster = c
		staging, err := tpox.NewDatabase(Scale)
		if err != nil {
			return nil, err
		}
		if err := loadCluster(c, staging); err != nil {
			return nil, err
		}
		for i := 0; i < c.Shards(); i++ {
			be.tracers = append(be.tracers, c.Shard(i).Tracer())
			be.regs = append(be.regs, c.Shard(i).Metrics())
		}
	case sp.durable:
		dir, err := b.freshWALDir()
		if err != nil {
			return nil, err
		}
		srv, _, err := server.Recover(server.Config{WALDir: dir, SyncPolicy: wal.SyncAlways},
			func() (*storage.Database, error) { return tpox.NewDatabase(Scale) })
		if err != nil {
			return nil, err
		}
		be.srv, be.walDir = srv, dir
	default:
		db, err := tpox.NewDatabase(Scale)
		if err != nil {
			return nil, err
		}
		be.srv = server.New(db, server.Config{})
	}
	if be.srv != nil {
		be.tracers = []*obs.Tracer{be.srv.Tracer()}
		be.regs = []*obs.Registry{be.srv.Metrics()}
	}
	for _, t := range be.tracers {
		t.SetSampleEvery(1)
	}
	return be, nil
}

// loadCluster inserts every staging document through the router, as
// xixad's sharded mode does, so placement follows the partition keys.
func loadCluster(c *shard.Cluster, staging *storage.Database) error {
	sess, err := c.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, name := range staging.TableNames() {
		if err := c.CreateTable(name); err != nil {
			return err
		}
		tbl, err := staging.Table(name)
		if err != nil {
			return err
		}
		var insErr error
		tbl.Scan(func(d *xmltree.Document) bool {
			_, insErr = sess.Execute(fmt.Sprintf("insert into %s value %s", name, xmltree.SerializeString(d)))
			return insErr == nil
		})
		if insErr != nil {
			return insErr
		}
	}
	return nil
}

func (be *backend) close() {
	if be.cluster != nil {
		be.cluster.Close()
	} else {
		be.srv.Close()
	}
	if be.walDir != "" {
		os.RemoveAll(be.walDir)
	}
}

func (be *backend) session() (executor, error) {
	if be.cluster != nil {
		return be.cluster.NewSession()
	}
	return be.srv.NewSession()
}

func (be *backend) tuneOnce() error {
	if be.cluster != nil {
		_, err := be.cluster.TuneOnce()
		return err
	}
	_, err := be.srv.TuneOnce()
	return err
}

// indexSet renders the materialized indexes the way \indexes does.
func (be *backend) indexSet() []string {
	if be.cluster == nil {
		return catalogSet(be.srv)
	}
	var out []string
	for i := 0; i < be.cluster.Shards(); i++ {
		for _, def := range catalogSet(be.cluster.Shard(i)) {
			out = append(out, fmt.Sprintf("shard %d: %s", i, def))
		}
	}
	sort.Strings(out)
	return out
}

// doc finds a returned document for serialization.
func (be *backend) doc(table string, id int64) (*xmltree.Document, bool) {
	if be.cluster == nil {
		tbl, err := be.srv.DB().Table(table)
		if err != nil {
			return nil, false
		}
		return tbl.Get(id)
	}
	for i := 0; i < be.cluster.Shards(); i++ {
		if tbl, err := be.cluster.Shard(i).DB().Table(table); err == nil {
			if d, ok := tbl.Get(id); ok {
				return d, true
			}
		}
	}
	return nil, false
}

// counter sums one registry value across the backend's registries.
func (be *backend) counter(name string) float64 {
	sum := 0.0
	for _, r := range be.regs {
		sum += obs.Values(r.Snapshot())[name]
	}
	return sum
}

func (be *backend) clusterCounter(name string) float64 {
	if be.cluster == nil {
		return 0
	}
	return obs.Values(be.cluster.Metrics().Snapshot())[name]
}

func (be *backend) whatIfCalls() (evaluate, enumerate float64) {
	if be.srv == nil {
		return 0, 0 // the cluster tuner costs with a private optimizer per round
	}
	return float64(be.srv.Optimizer().EvaluateCalls()), float64(be.srv.Optimizer().EnumerateCalls())
}

func (be *backend) txnStats() server.TxnStats {
	if be.srv != nil {
		return be.srv.TxnStats()
	}
	var sum server.TxnStats
	for i := 0; i < be.cluster.Shards(); i++ {
		st := be.cluster.Shard(i).TxnStats()
		sum.Commits += st.Commits
		sum.Conflicts += st.Conflicts
		sum.PublishWait += st.PublishWait
		if st.PublishLagPeak > sum.PublishLagPeak {
			sum.PublishLagPeak = st.PublishLagPeak
		}
	}
	return sum
}

func (be *backend) captureLen() int {
	if be.cluster != nil {
		return be.cluster.MergedCapture().Len()
	}
	return be.srv.Capture().Len()
}

// newTraces returns the traces recorded since the last call.
func (be *backend) newTraces() []*obs.QueryTrace {
	var out []*obs.QueryTrace
	for _, t := range be.tracers {
		last := be.seen[t]
		for _, qt := range t.Last(0) {
			if qt.ID > last {
				out = append(out, qt)
				if qt.ID > be.seen[t] {
					be.seen[t] = qt.ID
				}
			}
		}
	}
	return out
}

// spanSet is one statement's benchmark-side and program-side spans.
type spanSet struct {
	class     string
	text      string
	write     bool
	parse     time.Duration
	execute   time.Duration
	serialize time.Duration
	phases    map[string]time.Duration
	self      time.Duration
	stats     struct{ examined, results, touched int64 }
}

// tracer accumulates the traced run's spans and counters.
type tracer struct {
	be    *backend
	sess  executor
	spans []spanSet

	tuneMs               []float64
	evaluate, enumerate  float64
	builds, drops, catch float64
	rounds               int
}

// exec runs one statement the way xixad's connection loop does, inside
// benchmark spans, and attributes ExecuteStmt's time to the program's
// phase spans. With a cluster, scatter legs run in parallel; the
// slowest leg's phases are the ones on the statement's critical path.
func (t *tracer) exec(st Stmt) (spanSet, error) {
	ss := spanSet{class: st.Class, text: st.Text, write: st.Write, phases: make(map[string]time.Duration)}
	t0 := time.Now()
	stmt, err := xquery.Parse(st.Text)
	ss.parse = time.Since(t0)
	if err != nil {
		return ss, err
	}
	t1 := time.Now()
	res, err := t.sess.ExecuteStmt(stmt)
	ss.execute = time.Since(t1)
	if err != nil {
		return ss, fmt.Errorf("%v: %s", err, st.Text)
	}
	t2 := time.Now()
	for i, r := range res.Refs {
		if i >= 5 {
			break
		}
		if doc, ok := t.be.doc(stmt.Table, r.Doc); ok {
			_ = xmltree.SerializeString(doc)
		}
	}
	ss.serialize = time.Since(t2)

	var critical *obs.QueryTrace
	for _, qt := range t.be.newTraces() {
		if critical == nil || qt.Total > critical.Total {
			critical = qt
		}
	}
	var inPhases time.Duration
	if critical != nil {
		for _, sp := range critical.Spans {
			ss.phases[sp.Name] += sp.Duration
			inPhases += sp.Duration
		}
	}
	ss.self = ss.execute - inPhases
	s := res.Stats
	ss.stats.examined = s.NodesScanned + s.IndexEntriesRead + s.DocsFetched
	ss.stats.results = int64(len(res.Refs))
	ss.stats.touched = s.IndexEntriesTouched
	t.spans = append(t.spans, ss)
	return ss, nil
}

func (t *tracer) pass(stmts []Stmt) ([]spanSet, error) {
	out := make([]spanSet, 0, len(stmts))
	for _, st := range stmts {
		ss, err := t.exec(st)
		if err != nil {
			return out, err
		}
		out = append(out, ss)
	}
	return out, nil
}

// tune runs one TuneOnce inside a span, with the optimizer-call and
// index build/drop counter deltas around it.
func (t *tracer) tune() error {
	ev0, en0 := t.be.whatIfCalls()
	b0, d0, c0 := t.be.counter("xixa_index_builds_total"), t.be.counter("xixa_index_drops_total"), t.be.counter("xixa_index_build_catchup_events_total")
	start := time.Now()
	if err := t.be.tuneOnce(); err != nil {
		return err
	}
	t.tuneMs = append(t.tuneMs, ms(time.Since(start)))
	ev1, en1 := t.be.whatIfCalls()
	t.evaluate += ev1 - ev0
	t.enumerate += en1 - en0
	t.builds += t.be.counter("xixa_index_builds_total") - b0
	t.drops += t.be.counter("xixa_index_drops_total") - d0
	t.catch += t.be.counter("xixa_index_build_catchup_events_total") - c0
	t.rounds++
	return nil
}

// realizedMin is the worst per-class ratio of untuned to tuned median
// ExecuteStmt time.
func realizedMin(untuned, tuned []spanSet) (float64, string) {
	med := func(ss []spanSet) map[string]float64 {
		by := make(map[string][]float64)
		for _, s := range ss {
			by[s.class] = append(by[s.class], us(s.execute))
		}
		out := make(map[string]float64)
		for c, v := range by {
			out[c] = median(v)
		}
		return out
	}
	u, tu := med(untuned), med(tuned)
	worst, class := math.Inf(1), ""
	for c, v := range u {
		if tv, ok := tu[c]; ok && v/tv < worst {
			worst, class = v/tv, c
		}
	}
	return worst, class
}

func (b *bench) tracedRun(sp tunedSpec, wireIndexes []string, wireReads []float64) error {
	be, err := b.newBackend(sp)
	if err != nil {
		return err
	}
	defer be.close()
	sess, err := be.session()
	if err != nil {
		return err
	}
	defer sess.Close()
	t := &tracer{be: be, sess: sess}

	untuned, err := t.pass(sp.warmup)
	if err != nil {
		return err
	}
	for r := 0; r < setupTuneRounds; r++ {
		if err := t.tune(); err != nil {
			return err
		}
	}
	tuned, err := t.pass(sp.warmup)
	if err != nil {
		return err
	}
	if got := be.indexSet(); strings.Join(got, "\n") != strings.Join(wireIndexes, "\n") {
		mismatch(b.rep, "traced run built %d indexes, xixad %d: %v vs %v", len(got), len(wireIndexes), got, wireIndexes)
	}
	worst, worstClass := realizedMin(untuned, tuned)

	// The measured stream: the closed-loop sessions' first statements,
	// interleaved, then the probe's writes.
	var stmts []Stmt
	for i := 0; i < tracedPerStream; i++ {
		for _, s := range sp.closed {
			stmts = append(stmts, s.next())
		}
	}
	if sp.probe != nil {
		for i := 0; i < probeWrites; i++ {
			stmts = append(stmts, sp.probe.next())
		}
	}
	return b.measureTraced(t, stmts, worst, worstClass, wireReads)
}

func (b *bench) tracedDrift(passes [][3][]Stmt, wireIndexes [][]string, wireReads []float64) error {
	be, err := b.newBackend(tunedSpec{})
	if err != nil {
		return err
	}
	defer be.close()
	sess, err := be.session()
	if err != nil {
		return err
	}
	defer sess.Close()
	t := &tracer{be: be, sess: sess}
	worst, worstClass := math.Inf(1), ""
	var tunedReads []Stmt
	for i, ph := range passes {
		var first, last []spanSet
		for p := 0; p < 3; p++ {
			ss, err := t.pass(ph[p])
			if err != nil {
				return err
			}
			if p == 0 {
				first = ss
			}
			if p == 2 {
				last = ss
				break
			}
			if err := t.tune(); err != nil {
				return err
			}
		}
		if got := be.indexSet(); strings.Join(got, "\n") != strings.Join(wireIndexes[i], "\n") {
			mismatch(b.rep, "phase %d: traced run built %v, xixad %v", i+1, got, wireIndexes[i])
		}
		if w, c := realizedMin(first, last); w < worst {
			worst, worstClass = w, fmt.Sprintf("%s (phase %d)", c, i+1)
		}
		tunedReads = append(tunedReads, ph[2]...)
	}
	// Per-layer read numbers come from a replay of the tuned passes on
	// the final configuration, followed by the write probe.
	stmts := append([]Stmt(nil), tunedReads...)
	pw := newWriteGen(b.rng(rngProbe), 0, 1)
	for i := 0; i < probeWrites; i++ {
		stmts = append(stmts, pw.next())
	}
	return b.measureTraced(t, stmts, worst, worstClass, wireReads)
}

// measureTraced replays stmts and reports every per-layer metric.
func (b *bench) measureTraced(t *tracer, stmts []Stmt, worst float64, worstClass string, wireReads []float64) error {
	be := t.be
	tx0 := be.txnStats()
	wal0 := [4]float64{be.counter("xixa_wal_fsyncs_total"), be.counter("xixa_wal_appends_total"), be.counter("xixa_wal_size_bytes"), be.counter("xixa_wal_fsync_seconds_sum")}
	sh0 := [4]float64{be.clusterCounter("xixa_router_local_total"), be.clusterCounter("xixa_router_fanout_total"), be.clusterCounter("xixa_router_broadcast_total"), be.clusterCounter("xixa_router_fanout_seconds_sum")}
	first := len(t.spans)
	if _, err := t.pass(stmts); err != nil {
		return err
	}
	spans := t.spans[first:]
	tx1 := be.txnStats()
	capture := be.captureLen()

	var reads, writes []spanSet
	for _, s := range spans {
		if s.write {
			writes = append(writes, s)
		} else {
			reads = append(reads, s)
		}
	}
	if err := checkSelfTime(spans); err != nil {
		b.rep.problem("%v", err)
	}
	printClassBreakdown(spans)

	r := b.rep
	meanUs := func(ss []spanSet, f func(spanSet) time.Duration) float64 {
		if len(ss) == 0 {
			return 0
		}
		var sum time.Duration
		for _, s := range ss {
			sum += f(s)
		}
		return us(sum) / float64(len(ss))
	}
	phase := func(name string) func(spanSet) time.Duration {
		return func(s spanSet) time.Duration { return s.phases[name] }
	}
	var inproc []float64
	for _, s := range reads {
		inproc = append(inproc, us(s.parse+s.execute+s.serialize))
	}
	r.add("xixad.wire_us", "us", median(wireReads)*1000-median(inproc), len(reads))
	r.add("xquery.parse_us", "us", meanUs(spans, func(s spanSet) time.Duration { return s.parse }), len(spans))
	r.add("xmltree.serialize_us", "us", meanUs(reads, func(s spanSet) time.Duration { return s.serialize }), len(reads))
	r.add("server.execute_us", "us", meanUs(spans, func(s spanSet) time.Duration { return s.execute }), len(spans))
	r.add("server.self_us", "us", meanUs(spans, func(s spanSet) time.Duration { return s.self }), len(spans))
	r.add("server.commit_us", "us", meanUs(writes, phase("commit")), len(writes))
	commits := float64(tx1.Commits - tx0.Commits)
	per := func(x float64) float64 {
		if commits == 0 {
			return 0
		}
		return x / commits
	}
	r.add("server.conflict_retries_per_commit", "ratio", per(float64(tx1.Conflicts-tx0.Conflicts)), int(commits))
	r.add("server.tune_ms", "ms", mean(t.tuneMs), len(t.tuneMs))
	r.add("workload.capture_statements", "count", float64(capture), 0)
	r.add("optimizer.plan_us", "us", meanUs(spans, phase("optimize")), len(spans))
	rounds := float64(t.rounds)
	r.add("optimizer.whatif_calls", "count", t.evaluate/rounds, t.rounds)
	r.add("optimizer.enumerate_calls", "count", t.enumerate/rounds, t.rounds)
	r.add("core.realized_speedup_min", "x", worst, 0)
	fmt.Printf("worst realized speedup: class %s\n", worstClass)
	r.add("engine.index_scan_us", "us", meanUs(reads, phase("index scan")), len(reads))
	r.add("engine.verify_us", "us", meanUs(reads, phase("xpath verify")), len(reads))
	var examined, results, touched int64
	for _, s := range reads {
		examined += s.stats.examined
		results += s.stats.results
	}
	for _, s := range writes {
		touched += s.stats.touched
	}
	r.add("engine.examined_per_result", "ratio", ratio(float64(examined), float64(results)), len(reads))
	r.add("xindex.entries_touched_per_write", "ratio", ratio(float64(touched), float64(len(writes))), len(writes))
	r.add("xindex.builds", "count", t.builds/rounds, t.rounds)
	r.add("xindex.drops", "count", t.drops/rounds, t.rounds)
	r.add("xindex.catchup_events", "count", t.catch/rounds, t.rounds)
	r.add("storage.publish_wait_us_per_commit", "us", per(us(tx1.PublishWait-tx0.PublishWait)), int(commits))
	r.add("storage.publish_lag_peak", "count", float64(tx1.PublishLagPeak), 0)
	fsyncs := be.counter("xixa_wal_fsyncs_total") - wal0[0]
	r.add("wal.fsync_ms", "ms", ratio((be.counter("xixa_wal_fsync_seconds_sum")-wal0[3])*1000, fsyncs), int(fsyncs))
	r.add("wal.fsyncs_per_commit", "ratio", per(fsyncs), int(commits))
	r.add("wal.records_per_fsync", "ratio", ratio(be.counter("xixa_wal_appends_total")-wal0[1], fsyncs), int(fsyncs))
	r.add("wal.bytes_per_commit", "B", per(be.counter("xixa_wal_size_bytes")-wal0[2]), int(commits))
	local := be.clusterCounter("xixa_router_local_total") - sh0[0]
	fan := be.clusterCounter("xixa_router_fanout_total") - sh0[1]
	bcast := be.clusterCounter("xixa_router_broadcast_total") - sh0[2]
	r.add("shard.pinned_share", "ratio", ratio(local, local+fan+bcast), int(local+fan+bcast))
	r.add("shard.fanout_us", "us", ratio((be.clusterCounter("xixa_router_fanout_seconds_sum")-sh0[3])*1e6, fan+bcast), int(fan+bcast))
	r.add("shard.broadcasts", "count", bcast, 0)

	overhead, err := traceOverhead(t, reads)
	if err != nil {
		return err
	}
	r.add("obs.trace_overhead", "ratio", overhead, 0)
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkSelfTime verifies the decomposition: per statement class, the
// mean self time plus the mean phase spans equals the mean ExecuteStmt
// span, and no statement's phases exceed its span.
func checkSelfTime(spans []spanSet) error {
	for _, s := range spans {
		if s.self < 0 {
			return fmt.Errorf("class %s: phase spans exceed the ExecuteStmt span by %v", s.class, -s.self)
		}
		sum := s.self
		for _, d := range s.phases {
			sum += d
		}
		if sum != s.execute {
			return fmt.Errorf("class %s: self %v + phases != execute %v", s.class, s.self, s.execute)
		}
	}
	return nil
}

// printClassBreakdown prints each class's mean ExecuteStmt span split
// into self time and phases.
func printClassBreakdown(spans []spanSet) {
	by := make(map[string][]spanSet)
	for _, s := range spans {
		by[s.class] = append(by[s.class], s)
	}
	classes := make([]string, 0, len(by))
	for c := range by {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Printf("%-6s %6s %10s %10s", "class", "n", "execute", "self")
	for _, p := range phaseNames {
		fmt.Printf(" %12s", p)
	}
	fmt.Println("   (mean us)")
	for _, c := range classes {
		ss := by[c]
		n := float64(len(ss))
		var exec, self time.Duration
		ph := make(map[string]time.Duration)
		for _, s := range ss {
			exec += s.execute
			self += s.self
			for k, v := range s.phases {
				ph[k] += v
			}
		}
		fmt.Printf("%-6s %6d %10.1f %10.1f", c, len(ss), us(exec)/n, us(self)/n)
		for _, p := range phaseNames {
			fmt.Printf(" %12.1f", us(ph[p])/n)
		}
		fmt.Println()
	}
}

// traceOverhead replays the reads with the program's default sampling
// and with every statement traced, three times each, alternating, and
// returns the median ratio of traced to default throughput.
func traceOverhead(t *tracer, reads []spanSet) (float64, error) {
	if len(reads) == 0 {
		return 0, nil
	}
	stmts := make([]*xquery.Statement, 0, len(reads))
	for _, s := range reads {
		st, err := xquery.Parse(s.text)
		if err != nil {
			return 0, err
		}
		stmts = append(stmts, st)
	}
	run := func(every int) (float64, error) {
		for _, tr := range t.be.tracers {
			tr.SetSampleEvery(every)
		}
		start := time.Now()
		for _, st := range stmts {
			if _, err := t.sess.ExecuteStmt(st); err != nil {
				return 0, err
			}
		}
		return float64(len(stmts)) / time.Since(start).Seconds(), nil
	}
	var ratios []float64
	for i := 0; i < 3; i++ {
		def, err := run(defaultSampleEvery)
		if err != nil {
			return 0, err
		}
		all, err := run(1)
		if err != nil {
			return 0, err
		}
		ratios = append(ratios, all/def)
	}
	return median(ratios), nil
}

// defaultSampleEvery is the server's default trace sampling interval.
const defaultSampleEvery = 16
