package main

import (
	"fmt"
	"sort"
	"sync"

	"xixa/internal/server"
	"xixa/internal/tpox"
	"xixa/internal/xindex"
	"xixa/internal/xpath"
)

// oracle is an in-process server over the same TPoX data xixad loads.
// It starts untuned, so its read answers come from table scans and are
// independent of any index the daemon built.
type oracle struct {
	srv *server.Server
}

func newOracle() (*oracle, error) {
	db, err := tpox.NewDatabase(Scale)
	if err != nil {
		return nil, err
	}
	return &oracle{srv: server.New(db, server.Config{})}, nil
}

func (o *oracle) close() { o.srv.Close() }

// mismatch records one disagreement between the daemon and the oracle:
// a correctness failure, counted against the run's attempts.
func mismatch(rep *report, format string, args ...any) {
	rep.failed++
	rep.problem(format, args...)
}

// checkReads compares the wire result count of every successful read
// in samples with the untuned oracle's count. The reads must have run
// on unchanged data. Each distinct statement is answered once, by two
// oracle sessions in parallel.
func (o *oracle) checkReads(samples []sample, rep *report) error {
	want := make(map[string]int)
	for _, s := range samples {
		if s.ok && !s.stmt.Write {
			want[s.stmt.Text] = -1
		}
	}
	texts := make([]string, 0, len(want))
	for t := range want {
		texts = append(texts, t)
	}
	sort.Strings(texts)
	counts, err := o.countAll(texts, 2)
	if err != nil {
		return err
	}
	fmt.Printf("oracle: %d distinct reads\n", len(texts))
	for i, t := range texts {
		want[t] = counts[i]
	}
	bad := 0
	for _, s := range samples {
		if !s.ok || s.stmt.Write {
			continue
		}
		if w := want[s.stmt.Text]; s.count != w {
			bad++
			if bad <= 5 {
				mismatch(rep, "%s: xixad returned %d results, oracle %d: %s", s.stmt.Class, s.count, w, s.stmt.Text)
			} else {
				rep.failed++
			}
		}
	}
	if bad > 5 {
		rep.problem("%d more read count mismatches", bad-5)
	}
	return nil
}

// countAll executes texts on the oracle with the given number of
// sessions and returns each statement's result count.
func (o *oracle) countAll(texts []string, workers int) ([]int, error) {
	counts := make([]int, len(texts))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := o.srv.NewSession()
			if err != nil {
				errs[w] = err
				return
			}
			defer sess.Close()
			for i := w; i < len(texts); i += workers {
				res, err := sess.Execute(texts[i])
				if err != nil {
					errs[w] = fmt.Errorf("oracle: %v: %s", err, texts[i])
					return
				}
				counts[i] = len(res.Refs)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// keyIndexes are the partition-key paths the write replay looks
// documents up by.
var keyIndexes = []xindex.Definition{
	{Table: tpox.TableSecurity, Pattern: mustPattern("/Security/Symbol"), Type: xpath.StringVal},
	{Table: tpox.TableOrders, Pattern: mustPattern("/Order/@ID"), Type: xpath.StringVal},
}

func mustPattern(s string) xpath.Path {
	p, err := xpath.ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

// replay executes the writes of streams one stream after another, each
// in its own order, skipping the statements xixad refused (they never
// committed). Session key sets are disjoint, so this serial replay
// reaches the state any interleaving of the streams reaches. The
// oracle's read checks must be done first: replay builds key indexes
// and changes the data.
func (o *oracle) replay(streams [][]sample, rep *report) error {
	for _, def := range keyIndexes {
		if _, err := o.srv.Manager().EnsureBuilt(def); err != nil {
			return err
		}
	}
	sess, err := o.srv.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, st := range streams {
		for _, s := range st {
			if !s.ok || !s.stmt.Write {
				continue
			}
			if _, err := sess.Execute(s.stmt.Text); err != nil {
				mismatch(rep, "replay of a statement xixad committed failed: %v: %s", err, s.stmt.Text)
			}
		}
	}
	return nil
}

// checkState compares the final-state queries xixad answered with the
// replayed oracle's answers.
func (o *oracle) checkState(wire []sample, rep *report) error {
	texts := make([]string, len(wire))
	for i, s := range wire {
		texts[i] = s.stmt.Text
	}
	counts, err := o.countAll(texts, 1)
	if err != nil {
		return err
	}
	for i, s := range wire {
		if !s.ok {
			continue // already counted as failed
		}
		if s.count != counts[i] {
			mismatch(rep, "final state: xixad returned %d results, replay %d: %s", s.count, counts[i], s.stmt.Text)
		}
	}
	return nil
}
