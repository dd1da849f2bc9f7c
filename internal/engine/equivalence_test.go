package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"xixa/internal/optimizer"
	"xixa/internal/storage"
	"xixa/internal/xindex"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xquery"
)

// This file holds the repository's strongest end-to-end property test:
// for random databases, random index configurations, and random
// queries, the engine's index plans must return exactly the documents
// and nodes a full scan returns. This exercises the whole stack at
// once — XPath evaluation, pattern containment (index matching), the
// optimizer's plan choice, B+-tree range scans, key encoding, and
// fetch-and-verify execution. A bug in any layer surfaces as a result
// mismatch.

// randomEquivDB builds a small random database over a fixed vocabulary.
func randomEquivDB(r *rand.Rand) (*storage.Database, *storage.Table) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("T")
	names := []string{"a", "b", "c", "d"}
	values := []string{"u", "v", "w", "1", "2", "7.5"}
	docs := 10 + r.Intn(20)
	for d := 0; d < docs; d++ {
		b := xmltree.NewBuilder()
		var gen func(depth int)
		gen = func(depth int) {
			b.Begin(names[r.Intn(len(names))])
			if r.Intn(4) == 0 {
				b.Attr("k", values[r.Intn(len(values))])
			}
			if depth < 3 {
				for i := 0; i < r.Intn(3); i++ {
					gen(depth + 1)
				}
			}
			if r.Intn(2) == 0 {
				b.Text(values[r.Intn(len(values))])
			}
			b.End()
		}
		b.Begin("root")
		for i := 0; i < 1+r.Intn(3); i++ {
			gen(1)
		}
		b.End()
		tbl.Insert(b.Document())
	}
	return db, tbl
}

// randomEquivQuery builds a bare-path query with a random predicate.
func randomEquivQuery(r *rand.Rand) string {
	names := []string{"a", "b", "c", "d"}
	// A relative predicate path: the first step bare, later steps with
	// a child or descendant separator.
	rel := ""
	for i := 0; i < r.Intn(3); i++ {
		name := names[r.Intn(len(names))]
		if r.Intn(5) == 0 {
			name = "*"
		}
		if rel == "" {
			rel = name
		} else if r.Intn(3) == 0 {
			rel += "//" + name
		} else {
			rel += "/" + name
		}
	}
	leaf := names[r.Intn(len(names))]
	if rel != "" {
		leaf = rel + "/" + leaf
	}
	var pred string
	switch r.Intn(4) {
	case 0:
		pred = fmt.Sprintf(`%s="%s"`, leaf, []string{"u", "v", "w"}[r.Intn(3)])
	case 1:
		pred = fmt.Sprintf(`%s>%d`, leaf, r.Intn(5))
	case 2:
		pred = fmt.Sprintf(`%s<=%g`, leaf, float64(r.Intn(10))/2)
	default:
		pred = fmt.Sprintf(`%s!="%s"`, leaf, "u")
	}
	return fmt.Sprintf("T('DOC')/root[%s]", pred)
}

// randomEquivIndexes builds a random set of index definitions.
func randomEquivIndexes(r *rand.Rand) []xindex.Definition {
	patterns := []string{
		"//*", "/root//*", "/root/a//*", "//a", "//b", "//c", "//d",
		"/root/*", "/root/a/b", "/root//c", "//a/b", "//@k",
	}
	var out []xindex.Definition
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		kind := xpath.StringVal
		if r.Intn(2) == 0 {
			kind = xpath.NumberVal
		}
		out = append(out, xindex.Definition{
			Table:   "T",
			Pattern: xpath.MustParsePattern(patterns[r.Intn(len(patterns))]),
			Type:    kind,
		})
	}
	return out
}

// indexPlansMatchScans runs each query through an engine without
// indexes and through one over real indexes built from defs, and
// reports whether every index-engine result equals the scan's, with the
// index engine's work counters per query. label prefixes log lines.
func indexPlansMatchScans(t *testing.T, label string, db *storage.Database, tbl *storage.Table, defs []xindex.Definition, queries []string) ([]Stats, bool) {
	opt := optimizer.New(db, optimizer.CollectStats(db))

	// Baseline engine: no indexes.
	scanEng := New(db, opt, NewCatalog())

	// Indexed engine: the given real configuration.
	cat := NewCatalog()
	for _, def := range defs {
		idx, err := xindex.Build(tbl, def)
		if err != nil {
			t.Logf("%s: build: %v", label, err)
			return nil, false
		}
		cat.Add(idx)
	}
	idxEng := New(db, opt, cat)

	var stats []Stats
	for _, text := range queries {
		stmt, err := xquery.Parse(text)
		if err != nil {
			t.Logf("%s: parse %q: %v", label, text, err)
			return nil, false
		}
		want, _, err := scanEng.Execute(stmt)
		if err != nil {
			t.Logf("%s: scan exec: %v", label, err)
			return nil, false
		}
		got, st, err := idxEng.Execute(stmt)
		if err != nil {
			t.Logf("%s: index exec: %v", label, err)
			return nil, false
		}
		if len(got) != len(want) {
			t.Logf("%s query %q: index plan %d results, scan %d",
				label, text, len(got), len(want))
			return nil, false
		}
		for i := range got {
			if got[i] != want[i] {
				t.Logf("%s query %q: result %d differs", label, text, i)
				return nil, false
			}
		}
		stats = append(stats, st)
	}
	return stats, true
}

func TestPropertyIndexPlansEquivalentToScans(t *testing.T) {
	t.Run("wildcard index", testWildcardIndexPlanEquivalentToScan)
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db, tbl := randomEquivDB(r)
		queries := make([]string, 8)
		for q := range queries {
			queries[q] = randomEquivQuery(r)
		}
		_, ok := indexPlansMatchScans(t, fmt.Sprintf("seed %d", seed), db, tbl, randomEquivIndexes(r), queries)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// testWildcardIndexPlanEquivalentToScan is the fixed input of the
// equivalence test for a generalized index: /Security/* numerical
// probed for the PE and Yield sites of TPoX Q4's shape. One document's
// Yield lies inside the PE range; the index plan must return the scan's
// results and fetch exactly the documents a site-exact index (one per
// predicate path) would produce.
func testWildcardIndexPlanEquivalentToScan(t *testing.T) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable("T")
	for i := 0; i < 200; i++ {
		pe, yield := 5+i%40, 50+i%10
		if i == 7 {
			pe, yield = 30, 3 // Yield inside the PE range, PE outside it
		}
		tbl.Insert(xmltree.MustParse(fmt.Sprintf(
			`<Security><Symbol>S%d</Symbol><Name>Name %d</Name><PE>%d</PE><Yield>%d</Yield><Price><Open>%d</Open><Close>%d</Close></Price></Security>`,
			i, i, pe, yield, 10+i, 11+i)))
	}
	defs := []xindex.Definition{{Table: "T", Pattern: xpath.MustParsePattern("/Security/*"), Type: xpath.NumberVal}}
	queries := []string{
		`T('DOC')/Security[PE<7]`,
		`for $sec in T('DOC')/Security[PE<7] where $sec/Yield >= 55 return $sec/Symbol`,
	}
	stats, ok := indexPlansMatchScans(t, "wildcard", db, tbl, defs, queries)
	if !ok {
		t.Fatal("index plan results differ from the scan")
	}
	opt := optimizer.New(db, optimizer.CollectStats(db))
	for i, text := range queries {
		plan, err := opt.EvaluateIndexes(xquery.MustParse(text), defs)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.UsesIndexes() || stats[i].IndexProbes == 0 {
			t.Fatalf("%q: want an index plan over %s, got %s", text, defs[0], plan)
		}
		// Site-exact candidates: documents with a node on each access's
		// site path satisfying its comparison, intersected.
		want := 0
		tbl.Scan(func(doc *xmltree.Document) bool {
			for _, acc := range plan.Accesses {
				hit := false
				for _, id := range xpath.Eval(doc, acc.Site.Pattern) {
					hit = hit || xpath.CompareNodeValue(doc, id, acc.Site.Op, acc.Site.Lit)
				}
				if !hit {
					return true
				}
			}
			want++
			return true
		})
		if stats[i].DocsFetched != int64(want) {
			t.Errorf("%q: fetched %d documents, site-exact candidates %d", text, stats[i].DocsFetched, want)
		}
	}
}

// TestPropertyDMLKeepsIndexesConsistent: after random inserts and
// deletes through the engine, every index still agrees with a freshly
// built one.
func TestPropertyDMLKeepsIndexesConsistent(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db, tbl := randomEquivDB(r)
		opt := optimizer.New(db, optimizer.CollectStats(db))
		cat := NewCatalog()
		defs := randomEquivIndexes(r)
		for _, def := range defs {
			idx, err := xindex.Build(tbl, def)
			if err != nil {
				return false
			}
			cat.Add(idx)
		}
		eng := New(db, opt, cat)
		// Random DML stream.
		for op := 0; op < 15; op++ {
			switch r.Intn(2) {
			case 0:
				ins := fmt.Sprintf(
					`insert into T value <root><a>%s</a><b k="%d"><c>%d</c></b></root>`,
					[]string{"u", "v", "w"}[r.Intn(3)], r.Intn(5), r.Intn(10))
				if _, _, err := eng.Execute(xquery.MustParse(ins)); err != nil {
					return false
				}
			case 1:
				del := fmt.Sprintf(`delete from T where /root[a="%s"]`,
					[]string{"u", "v", "w"}[r.Intn(3)])
				if _, _, err := eng.Execute(xquery.MustParse(del)); err != nil {
					return false
				}
			}
		}
		// Every maintained index must equal a rebuild from scratch.
		for _, def := range defs {
			maintained, ok := cat.Get(def)
			if !ok {
				return false
			}
			fresh, err := xindex.Build(tbl, def)
			if err != nil {
				return false
			}
			if maintained.Entries() != fresh.Entries() {
				t.Logf("seed %d: index %s maintained %d entries, rebuild %d",
					seed, def, maintained.Entries(), fresh.Entries())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
