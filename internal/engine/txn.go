// Transactional execution: a Txn runs statements against a pinned
// database snapshot plus a private write overlay, buffering mutations
// as storage.TxOp records instead of applying them. Commit hands the
// buffer to storage.CommitTx, which validates first-writer-wins and
// publishes the whole write set under one commit stamp; index upkeep
// for engine-maintained indexes follows the successful commit
// (self-maintained online indexes update themselves from the change
// feed when the write set applies).
//
// Reads inside a transaction are version-aware: self-maintained
// (online) index entries carry the commit stamp of the version they
// index and a tombstone stamp when superseded, so a transaction can
// run index plans filtered to its snapshot stamp (xindex.ScanAsOf)
// instead of scanning the table — overlay writes (this transaction's
// uncommitted inserts/deletes/replacements) are layered over the index
// candidates exactly as they are over a scan. Engine-maintained
// indexes update after commit, outside the publish section, so they
// are not snapshot-exact; statements whose plans touch one fall back
// to scanning the snapshot. The serving read path (plain queries) is
// unaffected: it executes against live state with index plans exactly
// as before.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"xixa/internal/obs"
	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// ErrTxnDone reports an operation on a committed or rolled-back
// transaction.
var ErrTxnDone = errors.New("engine: transaction already finished")

// txWrite is one buffered mutation plus the pre-image its
// engine-maintained index upkeep needs at commit.
type txWrite struct {
	op  storage.TxOp
	pre *xmltree.Document // version current when the write was buffered
}

// overlay is a transaction's private view of one table's uncommitted
// writes, layered over the snapshot for read-your-own-writes.
type overlay struct {
	inserted []*xmltree.Document         // this txn's new docs (provisional negative IDs)
	deleted  map[int64]bool              // committed IDs this txn deleted
	replaced map[int64]*xmltree.Document // committed IDs this txn replaced -> post-image
}

// Txn is one transaction: a snapshot at a fixed commit stamp, a pinned
// catalog view, and buffered writes. It is not safe for concurrent use
// by multiple goroutines (one client, one transaction).
type Txn struct {
	eng      *Engine
	snap     *storage.Snapshot
	view     View
	writes   []txWrite
	overlays map[string]*overlay
	provSeq  int64
	done     bool
}

// Begin opens a transaction: the database snapshot and the catalog
// configuration are pinned here and stay fixed until Commit or
// Rollback.
func (e *Engine) Begin() *Txn {
	return &Txn{
		eng:      e,
		snap:     e.db.PinSnapshot(),
		view:     e.cat.View(),
		overlays: make(map[string]*overlay),
	}
}

// Snapshot returns the transaction's pinned snapshot.
func (tx *Txn) Snapshot() *storage.Snapshot { return tx.snap }

func (tx *Txn) overlay(table string) *overlay {
	ov, ok := tx.overlays[table]
	if !ok {
		ov = &overlay{deleted: make(map[int64]bool), replaced: make(map[int64]*xmltree.Document)}
		tx.overlays[table] = ov
	}
	return ov
}

// Execute runs one statement inside the transaction: queries and match
// phases read the snapshot through the write overlay; mutations buffer
// into the write set. Nothing touches shared state until Commit.
func (tx *Txn) Execute(stmt *xquery.Statement) ([]xindex.Ref, Stats, error) {
	return tx.ExecuteTraced(stmt, nil)
}

// ExecuteTraced is Execute with an optional trace attached (see
// Engine.ExecuteTraced); a nil qt makes it identical to Execute.
func (tx *Txn) ExecuteTraced(stmt *xquery.Statement, qt *obs.QueryTrace) ([]xindex.Ref, Stats, error) {
	if tx.done {
		return nil, Stats{}, ErrTxnDone
	}
	if tx.eng.recorder != nil {
		tx.eng.recorder.Record(stmt)
	}
	start := time.Now()
	var refs []xindex.Ref
	var st Stats
	var err error
	switch stmt.Kind {
	case xquery.Query:
		refs, err = tx.runQuery(stmt, &st, qt)
	case xquery.Insert:
		err = tx.runInsert(stmt, &st)
	case xquery.Delete:
		err = tx.runDelete(stmt, &st, qt)
	case xquery.Update:
		err = tx.runUpdate(stmt, &st, qt)
	default:
		err = fmt.Errorf("engine: unsupported statement kind %v", stmt.Kind)
	}
	st.Elapsed = time.Since(start)
	return refs, st, err
}

// matchDocs finds the documents satisfying the statement's normalized
// path in the transaction's view of the table — snapshot versions with
// this transaction's deletes hidden, replacements substituted, and
// uncommitted inserts appended — and the nodes the path bound in each
// (see Engine.matchDocs). When the optimizer picks an index plan
// and every chosen index can answer as of the snapshot's stamp, the
// candidates come from version-aware index scans instead of a table
// scan; otherwise (no usable plan, or an index too young or not
// self-maintained) the snapshot is scanned as before.
func (tx *Txn) matchDocs(stmt *xquery.Statement, st *Stats, qt *obs.QueryTrace) ([]*xmltree.Document, [][]xmltree.NodeID, error) {
	tv, err := tx.snap.Table(stmt.Table)
	if err != nil {
		return nil, nil, err
	}
	ov := tx.overlays[stmt.Table]
	if out, bound, ok := tx.matchViaIndexes(stmt, tv, ov, st, qt); ok {
		return out, bound, nil
	}
	var scanStart time.Time
	if qt != nil {
		scanStart = time.Now()
	}
	m := matcher{norm: stmt.NormalizedPath(), st: st}
	tv.Scan(func(d *xmltree.Document) bool {
		if ov != nil {
			if ov.deleted[d.DocID] {
				return true
			}
			if r, ok := ov.replaced[d.DocID]; ok {
				d = r
			}
		}
		m.verify(d)
		return true
	})
	if ov != nil {
		for _, d := range ov.inserted {
			m.verify(d)
		}
	}
	if qt != nil {
		// The scan fallback has no costed plan (matchViaIndexes declined
		// or planning failed), so the span carries no estimate cards.
		qt.Span("xpath verify", time.Since(scanStart), int64(len(m.docs)))
	}
	return m.docs, m.bound, nil
}

// matchViaIndexes answers a statement's match phase from version-aware
// index scans under the transaction's snapshot. It reports ok=false
// when the index route cannot serve the statement exactly — no index
// plan, a planning error, or an index that is not self-maintained or
// whose version bookkeeping starts after the snapshot's stamp — and
// the caller falls back to scanning.
//
// Overlay layering differs from the scan path because index entries
// reflect committed pre-images: documents this transaction replaced are
// evaluated against their post-images regardless of index candidacy (a
// buffered update may move a document into the predicate's range), and
// this transaction's deletes hide candidates. Every surviving candidate
// is re-verified against the full path — index ANDing over linear
// predicate sites over-approximates the match set.
func (tx *Txn) matchViaIndexes(stmt *xquery.Statement, tv *storage.TableView, ov *overlay, st *Stats, qt *obs.QueryTrace) ([]*xmltree.Document, [][]xmltree.NodeID, bool) {
	defs := tx.view.Definitions()
	if len(defs) == 0 {
		// Nothing materialized: skip planning entirely (the plan cost
		// would dwarf the scan on every conflict retry).
		return nil, nil, false
	}
	var optStart time.Time
	if qt != nil {
		optStart = time.Now()
	}
	plan, err := tx.eng.opt.EvaluateIndexes(stmt, defs)
	if qt != nil {
		qt.Span("optimize", time.Since(optStart), 0)
	}
	if err != nil || !plan.UsesIndexes() {
		return nil, nil, false
	}
	asOf := tx.snap.LSN()
	indexes := make([]*xindex.Index, len(plan.Accesses))
	for i, acc := range plan.Accesses {
		idx, ok := tx.view.Get(acc.Index)
		if !ok || !idx.SelfMaintained() || asOf < idx.VersionedSince() {
			return nil, nil, false
		}
		indexes[i] = idx
	}

	// Index ANDing at the snapshot stamp: intersect candidate document
	// sets from each access.
	var scanStart time.Time
	if qt != nil {
		scanStart = time.Now()
	}
	var cards []obs.NodeCard
	var candidates map[int64]bool
	for i, acc := range plan.Accesses {
		st.IndexProbes++
		docSet := make(map[int64]bool)
		entries := int64(indexes[i].ScanAsOf(acc.Site.Pattern, acc.Site.Op, acc.Site.Lit, asOf, func(r xindex.Ref) bool {
			docSet[r.Doc] = true
			return true
		}))
		st.IndexEntriesRead += entries
		if qt != nil {
			cards = append(cards, obs.NodeCard{
				Op: optimizer.OpIxScan, Site: acc.Site.Key(),
				Est: int64(acc.EntriesScanned + 0.5), Actual: entries,
			})
		}
		if candidates == nil {
			candidates = docSet
		} else {
			for id := range candidates {
				if !docSet[id] {
					delete(candidates, id)
				}
			}
		}
		if len(candidates) == 0 {
			break
		}
	}
	if qt != nil {
		span := qt.Span("index scan", time.Since(scanStart), int64(len(candidates)))
		qt.AddNodes(span, cards...)
		scanStart = time.Now()
	}

	// Merge candidates with this transaction's replaced documents (their
	// post-images are invisible to the index) in document-ID order, so
	// the result order is deterministic.
	ids := make([]int64, 0, len(candidates))
	for id := range candidates {
		if ov != nil && (ov.deleted[id] || ov.replaced[id] != nil) {
			continue
		}
		ids = append(ids, id)
	}
	if ov != nil {
		for id := range ov.replaced {
			if !ov.deleted[id] {
				ids = append(ids, id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	m := matcher{norm: stmt.NormalizedPath(), st: st}
	for _, id := range ids {
		var d *xmltree.Document
		if ov != nil {
			if r, ok := ov.replaced[id]; ok {
				d = r
			}
		}
		if d == nil {
			sd, ok := tv.Get(id)
			if !ok {
				continue
			}
			d = sd
		}
		m.verify(d) // verification re-evaluates the path
	}
	if ov != nil {
		for _, d := range ov.inserted {
			m.verify(d)
		}
	}
	if qt != nil {
		span := qt.Span("xpath verify", time.Since(scanStart), int64(len(m.docs)))
		qt.AddNodes(span,
			obs.NodeCard{Op: optimizer.OpFetch, Site: stmt.NormalizedKey(), Est: int64(plan.EstCandidateDocs + 0.5), Actual: int64(len(ids))},
			obs.NodeCard{Op: optimizer.OpFilter, Site: stmt.NormalizedKey(), Est: int64(plan.EstMatchingDocs + 0.5), Actual: int64(len(m.docs))},
		)
	}
	return m.docs, m.bound, true
}

func (tx *Txn) runQuery(stmt *xquery.Statement, st *Stats, qt *obs.QueryTrace) ([]xindex.Ref, error) {
	docs, bound, err := tx.matchDocs(stmt, st, qt)
	if err != nil {
		return nil, err
	}
	return boundRefs(docs, bound, st), nil
}

func (tx *Txn) runInsert(stmt *xquery.Statement, st *Stats) error {
	if stmt.Doc == nil {
		return fmt.Errorf("engine: insert without document")
	}
	if _, err := tx.eng.db.Table(stmt.Table); err != nil {
		return err
	}
	doc := cloneDoc(stmt.Doc)
	tx.provSeq--
	doc.DocID = tx.provSeq // provisional; the real ID arrives at commit
	ov := tx.overlay(stmt.Table)
	ov.inserted = append(ov.inserted, doc)
	tx.writes = append(tx.writes, txWrite{op: storage.TxOp{
		Table: stmt.Table, Kind: storage.TxInsert, DocID: doc.DocID, Doc: doc,
	}})
	st.DocsModified++
	return nil
}

// dropProvisional unbuffers an uncommitted insert this transaction is
// deleting: the pending TxInsert write and the overlay entry both go.
func (tx *Txn) dropProvisional(table string, provID int64) {
	for i := range tx.writes {
		w := &tx.writes[i]
		if w.op.Kind == storage.TxInsert && w.op.Table == table && w.op.DocID == provID {
			tx.writes = append(tx.writes[:i], tx.writes[i+1:]...)
			break
		}
	}
	ov := tx.overlay(table)
	for i, d := range ov.inserted {
		if d.DocID == provID {
			ov.inserted = append(ov.inserted[:i], ov.inserted[i+1:]...)
			break
		}
	}
}

func (tx *Txn) runDelete(stmt *xquery.Statement, st *Stats, qt *obs.QueryTrace) error {
	docs, _, err := tx.matchDocs(stmt, st, qt)
	if err != nil {
		return err
	}
	ov := tx.overlay(stmt.Table)
	for _, d := range docs {
		if d.DocID < 0 {
			tx.dropProvisional(stmt.Table, d.DocID)
		} else {
			ov.deleted[d.DocID] = true
			tx.writes = append(tx.writes, txWrite{
				op:  storage.TxOp{Table: stmt.Table, Kind: storage.TxDelete, DocID: d.DocID},
				pre: d,
			})
		}
		st.DocsModified++
	}
	return nil
}

func (tx *Txn) runUpdate(stmt *xquery.Statement, st *Stats, qt *obs.QueryTrace) error {
	docs, _, err := tx.matchDocs(stmt, st, qt)
	if err != nil {
		return err
	}
	ov := tx.overlay(stmt.Table)
	for _, d := range docs {
		targets := xpath.Eval(d, xpath.Concat(stmt.Match.StripPreds(), stmt.SetPath))
		if len(targets) == 0 {
			continue
		}
		newDoc := cloneDoc(d)
		for _, id := range targets {
			setNodeText(newDoc, id, stmt.SetValue)
		}
		newDoc.DocID = d.DocID
		if d.DocID < 0 {
			// Updating our own uncommitted insert: rewrite it in place
			// in the buffer; the commit logs only the final image.
			for i := range tx.writes {
				w := &tx.writes[i]
				if w.op.Kind == storage.TxInsert && w.op.Table == stmt.Table && w.op.DocID == d.DocID {
					w.op.Doc = newDoc
					break
				}
			}
			for i, od := range ov.inserted {
				if od.DocID == d.DocID {
					ov.inserted[i] = newDoc
					break
				}
			}
		} else {
			ov.replaced[d.DocID] = newDoc
			tx.writes = append(tx.writes, txWrite{
				op:  storage.TxOp{Table: stmt.Table, Kind: storage.TxReplace, DocID: d.DocID, Doc: newDoc},
				pre: d,
			})
		}
		st.DocsModified++
	}
	return nil
}

// CommitInfo reports a successful commit.
type CommitInfo struct {
	// Stamp is the commit stamp the write set published under
	// (0 for an empty transaction).
	Stamp uint64
	// LogLSN is the last write-ahead log LSN of the transaction's
	// records (0 without a log or for an empty transaction); the
	// caller's group-commit fsync targets it.
	LogLSN uint64
	// Maintenance counts the index upkeep applied after the commit.
	Maintenance Stats
}

// Commit publishes the transaction's write set atomically via
// storage.CommitTx. prepare, when non-nil, is the write-ahead log hook
// threaded through (see CommitTx). On storage.ErrConflict nothing was
// applied and the caller may retry on a fresh transaction. Either way
// the snapshot is released and the transaction is finished.
func (tx *Txn) Commit(prepare func([]storage.TxOp) (func(uint64) (uint64, error), error)) (CommitInfo, error) {
	if tx.done {
		return CommitInfo{}, ErrTxnDone
	}
	tx.done = true
	defer tx.snap.Release()
	if len(tx.writes) == 0 {
		return CommitInfo{}, nil
	}
	ops := make([]storage.TxOp, len(tx.writes))
	for i := range tx.writes {
		ops[i] = tx.writes[i].op
	}
	stamp, logLSN, err := tx.eng.db.CommitTx(tx.snap.LSN(), ops, prepare)
	if err != nil {
		return CommitInfo{}, err
	}
	info := CommitInfo{Stamp: stamp, LogLSN: logLSN}
	// Engine-maintained index upkeep mirrors the write set in order.
	// Commits racing here touch disjoint documents (first-writer-wins
	// guarantees it), and the index structures lock internally, so the
	// entries commute.
	for i := range tx.writes {
		w := &tx.writes[i]
		switch w.op.Kind {
		case storage.TxInsert:
			doc := w.op.Doc
			maintain(tx.view, w.op.Table, &info.Maintenance, func(idx *xindex.Index) int { return idx.OnInsert(doc) })
		case storage.TxDelete:
			pre := w.pre
			maintain(tx.view, w.op.Table, &info.Maintenance, func(idx *xindex.Index) int { return idx.OnDelete(pre) })
		case storage.TxReplace:
			pre, post := w.pre, w.op.Doc
			maintain(tx.view, w.op.Table, &info.Maintenance, func(idx *xindex.Index) int { return idx.OnDelete(pre) })
			maintain(tx.view, w.op.Table, &info.Maintenance, func(idx *xindex.Index) int { return idx.OnInsert(post) })
		}
	}
	return info, nil
}

// Rollback discards the write set and releases the snapshot. Rolling
// back a finished transaction is a no-op.
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	tx.snap.Release()
}
