// Package xindex implements XML path-value indexes: partial indexes
// defined by a linear XPath pattern and a data type, as created in DB2 9
// with CREATE INDEX ... GENERATE KEY USING XMLPATTERN (paper §II, §III).
//
// An index contains one entry per node reachable by its pattern,
// carrying a (document, node) reference. As in DB2, where an XML value
// index key puts the path ID ahead of the typed value, a key here is
//
//	PathID (4 bytes, big-endian) | type tag | value
//
// with the PathID taken from the owning table's path dictionary. A scan
// for a predicate site therefore reads one key range per dictionary path
// that both the index pattern and the site pattern match: a generalized
// /Security/* index probed for /Security/PE reads PE's entries only, not
// those of its sibling paths. Nodes without a path in the table
// dictionary (documents not interned against it, and every node of an
// index whose pattern the path NFA cannot compile) are keyed under one
// sentinel prefix, which every scan also reads. The optimizer's IXSCAN
// entry estimate still prices a wildcard index from the merged
// histogram of all its paths, so it overestimates these scans; it is
// left so on purpose, keeping plans and advisor output unchanged (see
// DESIGN.md, "Path-qualified index keys").
//
// Real indexes are backed by a B+-tree; virtual indexes carry only the
// statistics derived from the path synopsis and are what the optimizer
// manipulates in its Enumerate/Evaluate modes.
package xindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"xixa/internal/btree"
	"xixa/internal/storage"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xstats"
)

// Definition identifies an index: the table it indexes, its linear
// XPath pattern, and its key type.
type Definition struct {
	Table   string
	Pattern xpath.Path
	Type    xpath.ValueKind
}

// String renders the definition the way the paper's tables do, e.g.
// "/Security/Yield numerical on SECURITY".
func (d Definition) String() string {
	return fmt.Sprintf("%s %s on %s", d.Pattern.String(), d.Type, d.Table)
}

// Key returns a canonical identity string for maps.
func (d Definition) Key() string {
	return d.Table + "|" + d.Pattern.StripPreds().String() + "|" + d.Type.String()
}

// Validate checks the definition's pattern is a legal index pattern.
func (d Definition) Validate() error {
	if d.Table == "" {
		return fmt.Errorf("xindex: definition missing table")
	}
	if d.Pattern.Relative {
		return fmt.Errorf("xindex: pattern must be absolute: %s", d.Pattern)
	}
	if !d.Pattern.IsLinear() {
		return fmt.Errorf("xindex: pattern must be linear (no predicates): %s", d.Pattern)
	}
	if len(d.Pattern.Steps) == 0 {
		return fmt.Errorf("xindex: empty pattern")
	}
	return nil
}

// Ref is an index payload: a document and a node within it.
type Ref struct {
	Doc  int64
	Node xmltree.NodeID
}

func packRef(r Ref) uint64 {
	return uint64(r.Doc)<<24 | uint64(uint32(r.Node))&0xFFFFFF
}

func unpackRef(v uint64) Ref {
	return Ref{Doc: int64(v >> 24), Node: xmltree.NodeID(v & 0xFFFFFF)}
}

// sentinelPath is the key prefix of entries whose node has no path in
// the table dictionary. PathIDs are non-negative int32s, so it sorts
// after every real path; every scan reads its range.
const sentinelPath = math.MaxUint32

// pathPrefixLen is the width of a key's big-endian PathID prefix.
const pathPrefixLen = 4

// EncodeKey produces the order-preserving byte encoding of a typed
// value — the part of an index key after its PathID prefix: strings are
// tagged raw bytes; doubles are tagged big-endian with the sign bit
// flipped (and negative values complemented) so byte order equals
// numeric order. NaN has no place in that order — callers must filter
// NaN out (keyFor and Scan do) before encoding.
func EncodeKey(kind xpath.ValueKind, str string, num float64) []byte {
	return appendValueKey(make([]byte, 0, valueKeyLen(kind, str)), kind, str, num)
}

func valueKeyLen(kind xpath.ValueKind, str string) int {
	if kind == xpath.StringVal {
		return 1 + len(str)
	}
	return 9
}

func appendValueKey(dst []byte, kind xpath.ValueKind, str string, num float64) []byte {
	if kind == xpath.StringVal {
		return append(append(dst, 's'), str...)
	}
	bits := math.Float64bits(num)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(append(dst, 'n'), bits)
}

// Index is a materialized path-value index. An index is safe for
// concurrent use: scans take a read lock, maintenance takes a write
// lock, so the serving read path can probe an index while the change
// feed maintains it.
type Index struct {
	Def Definition

	// mu guards tree, matched, and states. Uncontended in the batch
	// paths; under the serving daemon it orders feed-driven maintenance
	// against concurrent probes.
	mu   sync.RWMutex
	tree *btree.Tree

	// dict is the owning table's path dictionary; matched[pid] reports
	// whether the pattern matches the interned path, and states holds
	// the per-path NFA state sets so the matched set extends
	// incrementally when inserts grow the dictionary. The pattern is
	// matched against the (tiny) dictionary instead of evaluating it
	// per node per document.
	matcher *xpath.PathMatcher
	dict    *xmltree.PathDict
	matched []bool
	states  []xpath.MatchState

	// online is non-nil for indexes built by BuildOnline: they maintain
	// themselves from the table's change feed and the engine must not
	// apply explicit maintenance to them (it would double-apply).
	online *onlineState

	// Version bookkeeping for snapshot (as-of-stamp) scans. borns maps a
	// live entry's packed ref to the commit stamp that created the
	// version it indexes; absent means born at stamp 0 (present in the
	// build snapshot, visible to every snapshot). graveyard holds entries
	// superseded by a stamped delete or replace: a snapshot at stamp S
	// still sees a tomb with born <= S < died. versionedSince is the
	// earliest stamp as-of which the version bookkeeping is complete
	// (deletes that committed before the online build's capture left no
	// tombs); ScanAsOf answers only for asOf >= versionedSince.
	borns          map[uint64]uint64
	graveyard      []tomb
	versionedSince uint64
	lastPrune      int

	// catchupEvents counts the change-feed events BuildOnline's catch-up
	// phase replayed; fixed before the index is published.
	catchupEvents int

	// sentinelEntries counts the tree's entries under the sentinel
	// path; scans skip that range while it is empty (guarded by mu).
	sentinelEntries int

	// sites caches, per predicate-site pattern, the dictionary paths a
	// scan for that site reads (see sitePaths). Scans read it without
	// locking; sitesMu serializes additions.
	sites   atomic.Pointer[[]*sitePaths]
	sitesMu sync.Mutex
}

// tomb is a dead index entry kept for snapshot scans: the entry's key
// and ref plus the half-open stamp interval [born, died) during which
// the version it indexed was current.
type tomb struct {
	key        []byte
	ref        uint64
	born, died uint64
}

// Build creates and populates an index over the current contents of the
// table. Nodes whose value does not parse as a number are skipped for
// numeric indexes (DB2's IGNORE INVALID VALUES behaviour).
func Build(t *storage.Table, def Definition) (*Index, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	if t.Name != def.Table {
		return nil, fmt.Errorf("xindex: definition targets table %q, got %q", def.Table, t.Name)
	}
	idx := newEmpty(t, def)
	t.Scan(func(doc *xmltree.Document) bool {
		idx.insertDoc(doc)
		return true
	})
	return idx, nil
}

// newEmpty builds the index shell Build and BuildOnline share.
func newEmpty(t *storage.Table, def Definition) *Index {
	idx := &Index{Def: def, tree: btree.MustNewTree(0)}
	if xpath.CompilablePattern(def.Pattern) {
		// Patterns beyond the NFA state budget (never produced by the
		// advisor) keep the per-document evaluation fallback.
		idx.matcher = xpath.NewPathMatcher(def.Pattern)
		idx.dict = t.PathDict()
	}
	return idx
}

// ensureMatched extends the matched-path set to cover every dictionary
// entry, threading the pattern NFA parent→child over the new entries.
func (x *Index) ensureMatched() []bool {
	snap := x.dict.Snapshot()
	if len(x.matched) < len(snap) {
		x.states = x.matcher.ExtendStates(snap, x.states)
		for i := len(x.matched); i < len(snap); i++ {
			x.matched = append(x.matched, x.matcher.Matched(x.states[i]))
		}
	}
	return x.matched
}

// matchingNodes returns the nodes of the document reachable by the
// index pattern. The path-evaluation fallback only runs for documents
// that do not share the table dictionary.
func (x *Index) matchingNodes(doc *xmltree.Document) []xmltree.NodeID {
	return xpath.Eval(doc, x.Def.Pattern)
}

// keyFor builds the entry key of a node on the given path.
func (x *Index) keyFor(doc *xmltree.Document, id xmltree.NodeID, path uint32) ([]byte, bool) {
	// Extract the node text once; the numeric key parses the same
	// string rather than re-walking the subtree.
	s := strings.TrimSpace(doc.TextOf(id))
	kind, num := xpath.StringVal, 0.0
	if x.Def.Type == xpath.NumberVal {
		v, ok := xmltree.ParseNumeric(s)
		// NaN is an invalid index value (DB2's IGNORE INVALID VALUES):
		// its sign-flipped encoding would land in the positive-number
		// key range and surface from range scans, yet no comparison is
		// ever true for NaN.
		if !ok || math.IsNaN(v) {
			return nil, false
		}
		kind, num, s = xpath.NumberVal, v, ""
	}
	key := make([]byte, pathPrefixLen, pathPrefixLen+valueKeyLen(kind, s))
	binary.BigEndian.PutUint32(key, path)
	return appendValueKey(key, kind, s, num), true
}

// eachMatch visits every node of the document the index pattern
// reaches, with the path its key is prefixed by. Documents interned
// against the table dictionary are scanned linearly against the
// precomputed matched-path set; others fall back to pattern evaluation
// and key under the sentinel path.
func (x *Index) eachMatch(doc *xmltree.Document, visit func(id xmltree.NodeID, path uint32)) {
	if doc.Dict == x.dict && x.dict != nil && len(doc.PathIDs) == doc.Len() {
		matched := x.ensureMatched()
		for i := range doc.Nodes {
			if doc.Nodes[i].Kind == xmltree.Text {
				continue
			}
			pid := doc.PathIDs[i]
			if pid >= 0 && int(pid) < len(matched) && matched[pid] {
				visit(xmltree.NodeID(i), uint32(pid))
			}
		}
		return
	}
	for _, id := range x.matchingNodes(doc) {
		visit(id, sentinelPath)
	}
}

func (x *Index) insertDoc(doc *xmltree.Document) int { return x.insertDocAt(doc, 0) }

func (x *Index) deleteDoc(doc *xmltree.Document) int { return x.deleteDocAt(doc, 0) }

// insertDocAt indexes one document version born at the given commit
// stamp (0 for unstamped maintenance: batch builds, engine-maintained
// upkeep, legacy replay — visible to every snapshot).
func (x *Index) insertDocAt(doc *xmltree.Document, stamp uint64) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	added := 0
	x.eachMatch(doc, func(id xmltree.NodeID, path uint32) {
		key, ok := x.keyFor(doc, id, path)
		if !ok {
			return
		}
		ref := packRef(Ref{Doc: doc.DocID, Node: id})
		if x.tree.Insert(key, ref) {
			added++
			if path == sentinelPath {
				x.sentinelEntries++
			}
			if stamp > 0 {
				if x.borns == nil {
					x.borns = make(map[uint64]uint64)
				}
				x.borns[ref] = stamp
			}
		}
	})
	return added
}

// deleteDocAt unindexes one document version at the given commit stamp.
// A stamped delete moves each entry to the graveyard so snapshots older
// than the delete keep seeing it; an unstamped delete (stamp 0) drops
// the entries outright.
func (x *Index) deleteDocAt(doc *xmltree.Document, stamp uint64) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	removed := 0
	x.eachMatch(doc, func(id xmltree.NodeID, path uint32) {
		key, ok := x.keyFor(doc, id, path)
		if !ok {
			return
		}
		ref := packRef(Ref{Doc: doc.DocID, Node: id})
		if x.tree.Delete(key, ref) {
			removed++
			if path == sentinelPath {
				x.sentinelEntries--
			}
			born := x.borns[ref]
			delete(x.borns, ref)
			if stamp > 0 {
				x.graveyard = append(x.graveyard, tomb{key: key, ref: ref, born: born, died: stamp})
			}
		}
	})
	x.pruneLocked()
	return removed
}

// pruneLocked forgets version bookkeeping no snapshot can need: tombs
// whose death is at or below the table's horizon (every current and
// future snapshot reads at or above it) and born records at or below it
// (the born <= asOf filter is then vacuous, which absence also means).
// Amortized by a doubling heuristic so a churn-heavy feed does not scan
// the graveyard per delete.
func (x *Index) pruneLocked() {
	if x.online == nil || len(x.graveyard) < 64 || len(x.graveyard) < 2*x.lastPrune {
		return
	}
	h := x.online.table.Horizon()
	kept := x.graveyard[:0]
	for _, t := range x.graveyard {
		if t.died > h {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(x.graveyard); i++ {
		x.graveyard[i] = tomb{}
	}
	x.graveyard = kept
	for ref, born := range x.borns {
		if born <= h {
			delete(x.borns, ref)
		}
	}
	x.lastPrune = len(x.graveyard)
}

// OnInsert maintains the index for a newly inserted document and
// returns the number of entries added.
func (x *Index) OnInsert(doc *xmltree.Document) int { return x.insertDoc(doc) }

// OnDelete maintains the index for a document about to be deleted and
// returns the number of entries removed.
func (x *Index) OnDelete(doc *xmltree.Document) int { return x.deleteDoc(doc) }

// Entries returns the number of index entries.
func (x *Index) Entries() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.tree.Len()
}

// Levels returns the B+-tree height.
func (x *Index) Levels() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.tree.Levels()
}

// SizeBytes returns the materialized index size.
func (x *Index) SizeBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.tree.SizeBytes()
}

// Walk visits every entry in (key, ref) order — the index's canonical
// content enumeration, used to assert that an online build converged to
// exactly the state a cold build produces. The visit function returns
// false to stop.
func (x *Index) Walk(visit func(key []byte, ref Ref) bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	x.tree.AscendRange(nil, nil, true, true, func(k []byte, v uint64) bool {
		return visit(k, unpackRef(v))
	})
}

// Scan visits the entries satisfying (op, lit) on the paths both the
// index pattern and the predicate site's pattern match (site is an
// absolute linear pattern; predicates are ignored), plus the sentinel
// range. Entries arrive in key order: path by path, values ascending
// within a path, sentinel entries last. For OpNe each path's range is
// its full type range with the equal keys skipped. It reports the
// number of index entries visited (the scan work), which the engine's
// work counters use.
func (x *Index) Scan(site xpath.Path, op xpath.CmpOp, lit xpath.Value, visit func(Ref) bool) int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	r, ok := x.scanBounds(op, lit)
	if !ok {
		return 0
	}
	return x.ascendPaths(x.sitePathsLocked(site), r, func(v uint64) bool {
		return visit(unpackRef(v))
	})
}

// ascendPaths runs the value range r over each path of ps and then over
// the sentinel path, if it holds entries, reporting the entries visited;
// visit returns false to stop. The caller holds x.mu.
func (x *Index) ascendPaths(ps *pathSet, r scanRange, visit func(v uint64) bool) int {
	var small [64]byte // typical keys: no allocation per scan
	var buf []byte
	if n := 2*pathPrefixLen + len(r.lo) + len(r.hi); n <= len(small) {
		buf = small[:n]
	} else {
		buf = make([]byte, n)
	}
	split := pathPrefixLen + len(r.lo)
	lo, hi := buf[:split:split], buf[split:]
	copy(lo[pathPrefixLen:], r.lo)
	copy(hi[pathPrefixLen:], r.hi)
	stopped := false
	each := func(k []byte, v uint64) bool {
		if r.skipEq != nil && bytes.Equal(k[pathPrefixLen:], r.skipEq) {
			return true
		}
		if !visit(v) {
			stopped = true
			return false
		}
		return true
	}
	paths := len(ps.pids)
	if x.sentinelEntries > 0 {
		paths++
	}
	n := 0
	for i := 0; i < paths && !stopped; i++ {
		path := uint32(sentinelPath)
		if i < len(ps.pids) {
			path = ps.pids[i]
		}
		binary.BigEndian.PutUint32(lo, path)
		binary.BigEndian.PutUint32(hi, path)
		n += x.tree.AscendRange(lo, hi, r.loIncl, r.hiIncl, each)
	}
	return n
}

// scanRange is the value-key interval a comparison translates to; a
// scan applies it under each path prefix it reads.
type scanRange struct {
	lo, hi         []byte
	loIncl, hiIncl bool
	skipEq         []byte // OpNe: full type range minus this key
}

// contains reports whether a value key falls inside the range — the
// same predicate AscendRange applies, for filtering keys held outside
// the tree (the graveyard).
func (r scanRange) contains(k []byte) bool {
	if r.skipEq != nil && bytes.Equal(k, r.skipEq) {
		return false
	}
	if r.lo != nil {
		if c := bytes.Compare(k, r.lo); c < 0 || (c == 0 && !r.loIncl) {
			return false
		}
	}
	if r.hi != nil {
		if c := bytes.Compare(k, r.hi); c > 0 || (c == 0 && !r.hiIncl) {
			return false
		}
	}
	return true
}

// scanBounds translates (op, lit) into the value range to scan; ok is
// false when the index cannot answer the comparison at all (type
// mismatch, NaN, unknown operator).
func (x *Index) scanBounds(op xpath.CmpOp, lit xpath.Value) (scanRange, bool) {
	r := scanRange{loIncl: true, hiIncl: true}
	switch {
	case lit.Kind == xpath.NumberVal && x.Def.Type != xpath.NumberVal,
		lit.Kind == xpath.StringVal && x.Def.Type != xpath.StringVal:
		return r, false // type mismatch: index cannot answer this comparison
	}
	if lit.Kind == xpath.NumberVal && math.IsNaN(lit.Num) {
		return r, false // no comparison against NaN holds, and NaN has no key
	}
	key := EncodeKey(lit.Kind, lit.Str, lit.Num)
	switch op {
	case xpath.OpEq:
		r.lo, r.hi = key, key
	case xpath.OpLt:
		r.hi, r.hiIncl = key, false
		r.lo = typeFloor(lit.Kind)
	case xpath.OpLe:
		r.hi = key
		r.lo = typeFloor(lit.Kind)
	case xpath.OpGt:
		r.lo, r.loIncl = key, false
		r.hi = typeCeil(lit.Kind)
	case xpath.OpGe:
		r.lo = key
		r.hi = typeCeil(lit.Kind)
	case xpath.OpNe:
		r.lo, r.hi = typeFloor(lit.Kind), typeCeil(lit.Kind)
		r.skipEq = key
	default:
		return r, false
	}
	return r, true
}

// VersionedSince is the earliest commit stamp as-of which ScanAsOf
// answers exactly: for a self-maintained index, the table's stamp
// ceiling at the online build's capture instant (deletes committed
// before capture left no tombs, so older snapshots cannot be served).
// Batch-built indexes return 0 but carry no version bookkeeping at all;
// only self-maintained indexes support snapshot scans.
func (x *Index) VersionedSince() uint64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.versionedSince
}

// ScanAsOf visits the entries satisfying (op, lit) on the site's paths
// (as Scan) as of commit stamp asOf: live entries born at or before
// asOf, plus graveyard entries whose version was current at asOf
// (born <= asOf < died) and whose key falls in the same path ranges.
// Tree entries arrive in key order; graveyard entries follow unordered
// — callers intersect document sets, so order is immaterial. Valid only
// on a self-maintained index with asOf >= VersionedSince; it returns
// the number of entries visited, like Scan.
func (x *Index) ScanAsOf(site xpath.Path, op xpath.CmpOp, lit xpath.Value, asOf uint64, visit func(Ref) bool) int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	r, ok := x.scanBounds(op, lit)
	if !ok {
		return 0
	}
	ps := x.sitePathsLocked(site)
	stopped := false
	n := x.ascendPaths(ps, r, func(v uint64) bool {
		if x.borns[v] > asOf {
			return true // version created after the snapshot
		}
		stopped = !visit(unpackRef(v))
		return !stopped
	})
	for i := 0; i < len(x.graveyard) && !stopped; i++ {
		t := &x.graveyard[i]
		if t.born <= asOf && asOf < t.died && ps.reads(t.key) && r.contains(t.key[pathPrefixLen:]) {
			n++
			stopped = !visit(unpackRef(t.ref))
		}
	}
	return n
}

// sitePaths is the cached answer to "which key ranges does a scan for
// this site read": the dictionary paths both the index pattern and the
// site pattern match. It is extended as the dictionary grows, threading
// the site pattern's NFA over the new entries only.
type sitePaths struct {
	site    xpath.Path         // predicate-free site pattern
	matcher *xpath.PathMatcher // nil: the site cannot compile; every index path qualifies
	mu      sync.Mutex         // serializes extension; guards states
	states  []xpath.MatchState
	set     atomic.Pointer[pathSet]
}

// pathSet is one immutable extent of a sitePaths: pids lists the
// qualifying paths ascending, member[pid] tests one, and len(member)
// is the number of dictionary entries decided. Extensions append past
// the published lengths, so readers of an older extent are unaffected.
type pathSet struct {
	pids   []uint32
	member []bool
}

// noPaths is the path set of an index without a dictionary: all of its
// entries live under the sentinel prefix.
var noPaths = &pathSet{}

// reads reports whether a scan over the set reads the key's path range.
func (ps *pathSet) reads(key []byte) bool {
	path := binary.BigEndian.Uint32(key)
	return path == sentinelPath || (int(path) < len(ps.member) && ps.member[path])
}

// siteCacheCap bounds the site patterns an index remembers; scans for
// further sites resolve their paths per scan.
const siteCacheCap = 64

// sitePathsLocked returns the path set a scan for site reads, covering
// every path the index has matched so far (no entry exists on a later
// one). The caller holds x.mu, read or write, so x.matched is stable.
func (x *Index) sitePathsLocked(site xpath.Path) *pathSet {
	if x.matcher == nil {
		return noPaths
	}
	sp := x.siteFor(site)
	if ps := sp.set.Load(); len(ps.member) >= len(x.matched) {
		return ps
	}
	return sp.extend(x.matched, x.dict.Snapshot())
}

// siteFor finds the cache entry for a site pattern, adding one on a
// miss. Lookups compare patterns structurally and allocate nothing.
func (x *Index) siteFor(site xpath.Path) *sitePaths {
	if cached := x.sites.Load(); cached != nil {
		for _, sp := range *cached {
			if sp.site.EqualLinear(site) {
				return sp
			}
		}
	}
	x.sitesMu.Lock()
	defer x.sitesMu.Unlock()
	var cached []*sitePaths
	if p := x.sites.Load(); p != nil {
		cached = *p
	}
	for _, sp := range cached {
		if sp.site.EqualLinear(site) {
			return sp
		}
	}
	sp := &sitePaths{site: site.StripPreds()}
	if xpath.CompilablePattern(sp.site) {
		sp.matcher = xpath.NewPathMatcher(sp.site)
	}
	sp.set.Store(noPaths)
	if len(cached) < siteCacheCap {
		next := append(cached[:len(cached):len(cached)], sp)
		x.sites.Store(&next)
	}
	return sp
}

// extend decides the dictionary entries from the set's current extent
// up to len(matched): a path qualifies when the index pattern matched it
// and the site pattern matches it too.
func (sp *sitePaths) extend(matched []bool, entries []xmltree.PathEntry) *pathSet {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ps := sp.set.Load()
	if len(ps.member) >= len(matched) {
		return ps
	}
	if sp.matcher != nil {
		sp.states = sp.matcher.ExtendStates(entries[:len(matched)], sp.states)
	}
	next := &pathSet{pids: ps.pids, member: ps.member}
	for pid := len(ps.member); pid < len(matched); pid++ {
		in := matched[pid] && (sp.matcher == nil || sp.matcher.Matched(sp.states[pid]))
		next.member = append(next.member, in)
		if in {
			next.pids = append(next.pids, uint32(pid))
		}
	}
	sp.set.Store(next)
	return next
}

// typeFloor/typeCeil bound the key space of one type tag, so ranges do
// not leak into the other type's keys.
func typeFloor(kind xpath.ValueKind) []byte {
	if kind == xpath.NumberVal {
		return []byte{'n'}
	}
	return []byte{'s'}
}

func typeCeil(kind xpath.ValueKind) []byte {
	if kind == xpath.NumberVal {
		return []byte{'n' + 1}
	}
	return []byte{'s' + 1}
}

// Matches reports whether this index can answer a query's indexable
// predicate on the given pattern with the given literal type: the type
// must agree and the index pattern must cover the query pattern.
func (d Definition) Matches(queryPattern xpath.Path, litKind xpath.ValueKind) bool {
	if d.Type != litKind {
		return false
	}
	return xpath.Contains(d.Pattern, queryPattern)
}

// Virtual is a hypothetical index: a definition plus statistics derived
// from the path synopsis. Virtual indexes participate in optimization
// exactly like real ones but have no B+-tree.
type Virtual struct {
	Def   Definition
	Stats xstats.PatternStats
}

// NewVirtual derives a virtual index from table statistics.
func NewVirtual(ts *xstats.TableStats, def Definition) (*Virtual, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return &Virtual{Def: def, Stats: ts.ForPattern(def.Pattern, def.Type)}, nil
}

// SizeBytes returns the estimated size of the virtual index.
func (v *Virtual) SizeBytes() int64 { return v.Stats.SizeBytes }
