package main

import (
	"sync"
	"syscall"
	"time"
)

// sample is one statement's outcome as the client saw it.
type sample struct {
	stmt  Stmt
	lat   time.Duration
	ok    bool
	count int    // result count from "OK N results"
	err   string // the ERR line, when !ok
}

func send(c *conn, st Stmt) (sample, error) {
	t0 := time.Now()
	rep, err := c.do(st.Text, false)
	if err != nil {
		return sample{}, err
	}
	return sample{stmt: st, lat: time.Since(t0), ok: rep.ok, count: rep.count, err: rep.line}, nil
}

// serialPass runs stmts one at a time on c.
func serialPass(c *conn, stmts []Stmt) ([]sample, error) {
	out := make([]sample, 0, len(stmts))
	for _, st := range stmts {
		s, err := send(c, st)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// closedLoop runs one session per stream, each on its own connection,
// sending its next statement as soon as the previous one completes,
// until dur has passed. It returns each session's samples in order and
// the phase's wall time.
func closedLoop(addr string, streams []stream, dur time.Duration) ([][]sample, time.Duration, error) {
	conns := make([]*conn, len(streams))
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			closeAll(conns)
			return nil, 0, err
		}
		conns[i] = c
	}
	defer closeAll(conns)
	out := make([][]sample, len(streams))
	errs := make([]error, len(streams))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s, err := send(conns[i], streams[i].next())
				if err != nil {
					errs[i] = err
					return
				}
				out[i] = append(out[i], s)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return out, elapsed, err
		}
	}
	return out, elapsed, nil
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		if c != nil {
			c.close()
		}
	}
}

// openResult is an open-loop phase: latencies timed from each
// statement's intended send time, and the generator's own health.
type openResult struct {
	samples   []sample
	perStream [][]sample // each stream's samples in its own order
	lateMs    []float64  // how late the generator released each statement
	cpuCores  float64    // generator process CPU time / wall time
}

// openLoop offers statements at a fixed total rate for dur, one
// connection per stream; statement i comes from stream i mod
// len(streams), so each stream keeps its order. The schedule never
// waits for replies: a statement whose connection is busy queues, and
// its latency counts from the moment the generator released it on
// schedule, so a stall shows in the latencies of everything scheduled
// behind it. How late the generator's own timer released it is
// reported apart (lateMs), not charged to the daemon.
func openLoop(addr string, streams []stream, rate float64, dur time.Duration) (openResult, error) {
	conns := make([]*conn, len(streams))
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			closeAll(conns)
			return openResult{}, err
		}
		conns[i] = c
	}
	defer closeAll(conns)
	n := int(rate * dur.Seconds())
	type job struct {
		st       Stmt
		released time.Time
	}
	res := openResult{perStream: make([][]sample, len(streams)), lateMs: make([]float64, 0, n)}
	queues := make([]chan job, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, c := range conns {
		// Sized to the whole schedule so the generator never blocks on
		// a busy server.
		queues[i] = make(chan job, n)
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			for j := range queues[i] {
				if errs[i] != nil {
					continue // drain; the error fails the phase
				}
				rep, err := c.do(j.st.Text, false)
				if err != nil {
					errs[i] = err
					continue
				}
				res.perStream[i] = append(res.perStream[i], sample{stmt: j.st, lat: time.Since(j.released), ok: rep.ok, count: rep.count, err: rep.line})
			}
		}(i, c)
	}
	cpu0 := cpuTime()
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		k := i % len(streams)
		st := streams[k].next()
		now := time.Now()
		res.lateMs = append(res.lateMs, ms(now.Sub(due)))
		queues[k] <- job{st: st, released: now}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	res.cpuCores = (cpuTime() - cpu0).Seconds() / time.Since(start).Seconds()
	res.samples = flatten(res.perStream)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
