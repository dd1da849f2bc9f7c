package xindex

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"xixa/internal/storage"
	"xixa/internal/xmltree"
	"xixa/internal/xpath"
	"xixa/internal/xstats"
)

func secDoc(i int) *xmltree.Document {
	sectors := []string{"Energy", "Tech", "Finance", "Retail"}
	return xmltree.NewBuilder().
		Begin("Security").
		Leaf("Symbol", fmt.Sprintf("S%04d", i)).
		LeafFloat("Yield", float64(i%10)+0.5).
		Begin("SecInfo").Begin("StockInformation").
		Leaf("Sector", sectors[i%len(sectors)]).
		End().End().
		End().Document()
}

func buildSecurityTable(n int) *storage.Table {
	tbl := storage.NewTable("SECURITY")
	for i := 0; i < n; i++ {
		tbl.Insert(secDoc(i))
	}
	return tbl
}

func def(pattern string, kind xpath.ValueKind) Definition {
	return Definition{Table: "SECURITY", Pattern: xpath.MustParsePattern(pattern), Type: kind}
}

func TestDefinitionValidate(t *testing.T) {
	if err := def("/Security/Symbol", xpath.StringVal).Validate(); err != nil {
		t.Errorf("valid definition rejected: %v", err)
	}
	bad := Definition{Table: "", Pattern: xpath.MustParse("/a"), Type: xpath.StringVal}
	if err := bad.Validate(); err == nil {
		t.Error("missing table accepted")
	}
	rel := Definition{Table: "T", Pattern: xpath.MustParse("a/b"), Type: xpath.StringVal}
	if err := rel.Validate(); err == nil {
		t.Error("relative pattern accepted")
	}
}

func TestBuildStringIndex(t *testing.T) {
	tbl := buildSecurityTable(100)
	idx, err := Build(tbl, def("/Security/Symbol", xpath.StringVal))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if idx.Entries() != 100 {
		t.Errorf("Entries = %d, want 100", idx.Entries())
	}
	var hits []Ref
	idx.Scan(idx.Def.Pattern, xpath.OpEq, xpath.StringValue("S0042"), func(r Ref) bool {
		hits = append(hits, r)
		return true
	})
	if len(hits) != 1 {
		t.Fatalf("eq scan hits = %d, want 1", len(hits))
	}
	doc, ok := tbl.Get(hits[0].Doc)
	if !ok {
		t.Fatal("ref points to missing doc")
	}
	if got := doc.TextOf(hits[0].Node); got != "S0042" {
		t.Errorf("ref value = %q", got)
	}
}

func TestBuildNumericIndexAndRanges(t *testing.T) {
	tbl := buildSecurityTable(100)
	idx, err := Build(tbl, def("/Security/Yield", xpath.NumberVal))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if idx.Entries() != 100 {
		t.Fatalf("Entries = %d", idx.Entries())
	}
	count := func(op xpath.CmpOp, v float64) int {
		n := 0
		idx.Scan(idx.Def.Pattern, op, xpath.NumberValue(v), func(Ref) bool { n++; return true })
		return n
	}
	// Yields are i%10 + 0.5 for 100 docs: 10 of each value 0.5..9.5.
	if got := count(xpath.OpEq, 4.5); got != 10 {
		t.Errorf("eq 4.5 = %d, want 10", got)
	}
	if got := count(xpath.OpGt, 4.5); got != 50 {
		t.Errorf("gt 4.5 = %d, want 50", got)
	}
	if got := count(xpath.OpGe, 4.5); got != 60 {
		t.Errorf("ge 4.5 = %d, want 60", got)
	}
	if got := count(xpath.OpLt, 0.5); got != 0 {
		t.Errorf("lt 0.5 = %d, want 0", got)
	}
	if got := count(xpath.OpLe, 9.5); got != 100 {
		t.Errorf("le 9.5 = %d, want 100", got)
	}
	if got := count(xpath.OpNe, 4.5); got != 90 {
		t.Errorf("ne 4.5 = %d, want 90", got)
	}
}

func TestNumericIndexSkipsNonNumeric(t *testing.T) {
	tbl := storage.NewTable("SECURITY")
	tbl.Insert(xmltree.MustParse(`<Security><Yield>4.5</Yield></Security>`))
	tbl.Insert(xmltree.MustParse(`<Security><Yield>not-a-number</Yield></Security>`))
	idx, err := Build(tbl, def("/Security/Yield", xpath.NumberVal))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Entries() != 1 {
		t.Errorf("Entries = %d, want 1 (invalid values ignored)", idx.Entries())
	}
}

func TestGeneralPatternIndexesAllCoveredNodes(t *testing.T) {
	tbl := buildSecurityTable(20)
	idx, err := Build(tbl, def("/Security//*", xpath.StringVal))
	if err != nil {
		t.Fatal(err)
	}
	// Each doc: Symbol, Yield, SecInfo, StockInformation, Sector = 5
	// descendant elements of /Security.
	if idx.Entries() != 20*5 {
		t.Errorf("Entries = %d, want %d", idx.Entries(), 20*5)
	}
	// An equality lookup returns every covered node whose typed value is
	// "Energy": the Sector leaf, plus SecInfo and StockInformation whose
	// concatenated subtree text is also "Energy" (element values are the
	// concatenation of descendant text, as in DB2).
	n := 0
	idx.Scan(idx.Def.Pattern, xpath.OpEq, xpath.StringValue("Energy"), func(Ref) bool { n++; return true })
	if n != 15 { // (20 docs / 4 sectors) * 3 nodes per matching doc
		t.Errorf("Energy hits = %d, want 15", n)
	}
}

func TestMaintenanceOnInsertDelete(t *testing.T) {
	tbl := buildSecurityTable(10)
	idx, _ := Build(tbl, def("/Security/Symbol", xpath.StringVal))
	d := secDoc(999)
	tbl.Insert(d)
	if added := idx.OnInsert(d); added != 1 {
		t.Errorf("OnInsert added %d entries, want 1", added)
	}
	if idx.Entries() != 11 {
		t.Errorf("Entries = %d, want 11", idx.Entries())
	}
	if removed := idx.OnDelete(d); removed != 1 {
		t.Errorf("OnDelete removed %d, want 1", removed)
	}
	tbl.Delete(d.DocID)
	if idx.Entries() != 10 {
		t.Errorf("Entries = %d, want 10", idx.Entries())
	}
	// Lookup of the removed doc's symbol finds nothing.
	n := 0
	idx.Scan(idx.Def.Pattern, xpath.OpEq, xpath.StringValue("S0999"), func(Ref) bool { n++; return true })
	if n != 0 {
		t.Errorf("stale entries after delete: %d", n)
	}
}

func TestScanTypeMismatch(t *testing.T) {
	tbl := buildSecurityTable(10)
	strIdx, _ := Build(tbl, def("/Security/Symbol", xpath.StringVal))
	n := strIdx.Scan(strIdx.Def.Pattern, xpath.OpEq, xpath.NumberValue(4.5), func(Ref) bool { return true })
	if n != 0 {
		t.Errorf("numeric probe of string index visited %d", n)
	}
	numIdx, _ := Build(tbl, def("/Security/Yield", xpath.NumberVal))
	n = numIdx.Scan(numIdx.Def.Pattern, xpath.OpEq, xpath.StringValue("x"), func(Ref) bool { return true })
	if n != 0 {
		t.Errorf("string probe of numeric index visited %d", n)
	}
}

func TestEncodeKeyOrderPreserving(t *testing.T) {
	check := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := EncodeKey(xpath.NumberVal, "", a)
		kb := EncodeKey(xpath.NumberVal, "", b)
		cmp := 0
		for i := range ka {
			if ka[i] != kb[i] {
				if ka[i] < kb[i] {
					cmp = -1
				} else {
					cmp = 1
				}
				break
			}
		}
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Explicit spot checks across sign and magnitude boundaries.
	vals := []float64{math.Inf(-1), -1e300, -2, -1, -0.5, 0, 0.5, 1, 2, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		ka := string(EncodeKey(xpath.NumberVal, "", vals[i-1]))
		kb := string(EncodeKey(xpath.NumberVal, "", vals[i]))
		if !(ka < kb) {
			t.Errorf("encoding order broken between %v and %v", vals[i-1], vals[i])
		}
	}
}

func TestVirtualMatchesRealSize(t *testing.T) {
	tbl := buildSecurityTable(500)
	ts := xstats.Collect(tbl)
	for _, tc := range []struct {
		pattern string
		kind    xpath.ValueKind
	}{
		{"/Security/Symbol", xpath.StringVal},
		{"/Security/Yield", xpath.NumberVal},
		{"/Security//*", xpath.StringVal},
	} {
		d := def(tc.pattern, tc.kind)
		real, err := Build(tbl, d)
		if err != nil {
			t.Fatal(err)
		}
		virt, err := NewVirtual(ts, d)
		if err != nil {
			t.Fatal(err)
		}
		if int64(real.Entries()) != virt.Stats.Entries {
			t.Errorf("%s: real entries %d != virtual %d", tc.pattern, real.Entries(), virt.Stats.Entries)
		}
		ratio := float64(real.SizeBytes()) / float64(virt.SizeBytes())
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: real size %d vs virtual %d (ratio %.2f)",
				tc.pattern, real.SizeBytes(), virt.SizeBytes(), ratio)
		}
	}
}

func TestDefinitionMatches(t *testing.T) {
	d := def("/Security//*", xpath.StringVal)
	if !d.Matches(xpath.MustParse("/Security/Symbol"), xpath.StringVal) {
		t.Error("general index must match covered pattern")
	}
	if d.Matches(xpath.MustParse("/Security/Symbol"), xpath.NumberVal) {
		t.Error("type mismatch must not match")
	}
	if d.Matches(xpath.MustParse("/Other/Symbol"), xpath.StringVal) {
		t.Error("uncovered pattern matched")
	}
}

// TestPropertyIndexAgreesWithEval: for random docs and random linear
// patterns, the set of (doc,node) pairs in the index equals the set of
// nodes selected by evaluating the pattern on each document.
func TestPropertyIndexAgreesWithEval(t *testing.T) {
	patterns := []string{"/a/b", "/a//c", "//b", "/a/*", "/a//*", "/a/b/c"}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := storage.NewTable("SECURITY")
		names := []string{"a", "b", "c"}
		for d := 0; d < 10; d++ {
			b := xmltree.NewBuilder()
			var gen func(depth int)
			gen = func(depth int) {
				b.Begin(names[r.Intn(len(names))])
				if depth < 3 {
					for i := 0; i < r.Intn(3); i++ {
						gen(depth + 1)
					}
				}
				b.Text(fmt.Sprintf("v%d", r.Intn(5)))
				b.End()
			}
			b.Begin("a")
			for i := 0; i < 1+r.Intn(3); i++ {
				gen(1)
			}
			b.End()
			tbl.Insert(b.Document())
		}
		pat := patterns[r.Intn(len(patterns))]
		idx, err := Build(tbl, Definition{Table: "SECURITY", Pattern: xpath.MustParsePattern(pat), Type: xpath.StringVal})
		if err != nil {
			return false
		}
		var fromIndex []Ref
		idx.Scan(idx.Def.Pattern, xpath.OpNe, xpath.StringValue("\x00impossible"), func(r Ref) bool {
			fromIndex = append(fromIndex, r)
			return true
		})
		var fromEval []Ref
		tbl.Scan(func(doc *xmltree.Document) bool {
			for _, id := range xpath.Eval(doc, xpath.MustParse(pat)) {
				fromEval = append(fromEval, Ref{Doc: doc.DocID, Node: id})
			}
			return true
		})
		less := func(a, b Ref) bool {
			if a.Doc != b.Doc {
				return a.Doc < b.Doc
			}
			return a.Node < b.Node
		}
		sort.Slice(fromIndex, func(i, j int) bool { return less(fromIndex[i], fromIndex[j]) })
		sort.Slice(fromEval, func(i, j int) bool { return less(fromEval[i], fromEval[j]) })
		if len(fromIndex) != len(fromEval) {
			t.Logf("seed %d pattern %s: index %d entries, eval %d", seed, pat, len(fromIndex), len(fromEval))
			return false
		}
		for i := range fromIndex {
			if fromIndex[i] != fromEval[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNumericIndexSkipsNaN asserts NaN values never become numeric
// index entries (IGNORE INVALID VALUES): before the fix, NaN's
// sign-flipped encoding landed inside the positive-number key range and
// surfaced from range scans, even though no comparison is true of NaN.
func TestNumericIndexSkipsNaN(t *testing.T) {
	tbl := storage.NewTable("SECURITY")
	mk := func(yield string) *xmltree.Document {
		return xmltree.NewBuilder().
			Begin("Security").Leaf("Yield", yield).End().Document()
	}
	docs := []*xmltree.Document{mk("NaN"), mk("1.5"), mk("nan"), mk("7.25"), mk("NAN")}
	for _, d := range docs {
		tbl.Insert(d)
	}
	idx, err := Build(tbl, def("/Security/Yield", xpath.NumberVal))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Entries() != 2 {
		t.Fatalf("index holds %d entries, want 2 (NaN must be skipped)", idx.Entries())
	}
	// Full numeric range: NaN must not be range-scannable.
	var hits []Ref
	idx.Scan(idx.Def.Pattern, xpath.OpGe, xpath.NumberValue(math.Inf(-1)), func(r Ref) bool {
		hits = append(hits, r)
		return true
	})
	if len(hits) != 2 {
		t.Fatalf("range scan returned %d refs, want 2: %v", len(hits), hits)
	}
	// NaN literal: no comparison holds.
	for _, op := range []xpath.CmpOp{xpath.OpEq, xpath.OpLt, xpath.OpLe, xpath.OpGt, xpath.OpGe, xpath.OpNe} {
		n := idx.Scan(idx.Def.Pattern, op, xpath.NumberValue(math.NaN()), func(Ref) bool { return true })
		if n != 0 {
			t.Fatalf("Scan(%v, NaN) visited %d entries, want 0", op, n)
		}
	}
	// Maintenance symmetry: deleting the NaN docs touches nothing,
	// deleting a numeric doc removes its entry.
	if removed := idx.OnDelete(docs[0]); removed != 0 {
		t.Fatalf("OnDelete of NaN doc removed %d entries", removed)
	}
	if removed := idx.OnDelete(docs[1]); removed != 1 {
		t.Fatalf("OnDelete of numeric doc removed %d entries", removed)
	}
}

// scanRefs collects a scan's references in a canonical order with the
// entry count it reported.
func scanRefs(scan func(visit func(Ref) bool) int) ([]Ref, int) {
	var refs []Ref
	n := scan(func(r Ref) bool {
		refs = append(refs, r)
		return true
	})
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Doc != refs[j].Doc {
			return refs[i].Doc < refs[j].Doc
		}
		return refs[i].Node < refs[j].Node
	})
	return refs, n
}

// TestWildcardScanVisitsOnlySitePaths: a generalized /Security/* index
// scanned for the site /Security/PE must visit exactly the entries a
// /Security/PE index visits — not the Yield values of the same documents
// that fall in the probed range — live (Scan) and as of every commit
// stamp (ScanAsOf), across stamped deletes and replacements in the
// graveyard, dictionary growth after the build, and a document outside
// the table dictionary (the sentinel range).
func TestWildcardScanVisitsOnlySitePaths(t *testing.T) {
	secPE := func(i int, extra string) *xmltree.Document {
		// Yield falls inside the PE range the probes below select.
		return xmltree.MustParse(fmt.Sprintf(
			`<Security><Symbol>S%d</Symbol><PE>%d</PE><Yield>%d</Yield>%s</Security>`,
			i, i%20, (i*7)%20, extra))
	}
	tbl := storage.NewTable("SECURITY")
	for i := 0; i < 40; i++ {
		tbl.Insert(secPE(i, ""))
	}
	build := func(pattern string) *Index {
		idx, err := BuildOnline(tbl, def(pattern, xpath.NumberVal))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(idx.Release)
		return idx
	}
	wild := build("/Security/*")
	exact := map[string]*Index{"/Security/PE": build("/Security/PE"), "/Security/Beta": build("/Security/Beta")}

	probes := []struct {
		op  xpath.CmpOp
		lit float64
	}{{xpath.OpLt, 12}, {xpath.OpGe, 6}, {xpath.OpEq, 3}, {xpath.OpNe, 3}, {xpath.OpLe, 100}}
	check := func(stage string, sites ...string) {
		t.Helper()
		for _, site := range sites {
			ex := exact[site]
			sp := xpath.MustParsePattern(site)
			for _, p := range probes {
				lit := xpath.NumberValue(p.lit)
				got, gn := scanRefs(func(v func(Ref) bool) int { return wild.Scan(sp, p.op, lit, v) })
				want, wn := scanRefs(func(v func(Ref) bool) int { return ex.Scan(sp, p.op, lit, v) })
				if gn != wn || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: Scan %s %v %v: wildcard visited %d %v, exact %d %v", stage, site, p.op, p.lit, gn, got, wn, want)
				}
				for asOf := wild.VersionedSince(); asOf <= tbl.StampCeiling()+1; asOf++ {
					got, gn := scanRefs(func(v func(Ref) bool) int { return wild.ScanAsOf(sp, p.op, lit, asOf, v) })
					want, wn := scanRefs(func(v func(Ref) bool) int { return ex.ScanAsOf(sp, p.op, lit, asOf, v) })
					if gn != wn || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: ScanAsOf(%d) %s %v %v: wildcard visited %d %v, exact %d %v", stage, asOf, site, p.op, p.lit, gn, got, wn, want)
					}
				}
			}
		}
	}
	check("after build", "/Security/PE", "/Security/Beta")

	// Stamped deletes and a copy-on-write replacement: their entries move
	// to the graveyard, Yield tombs beside PE tombs.
	for _, id := range []int64{2, 5, 11} {
		if !tbl.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
	}
	tbl.Replace(7, secPE(27, ""))
	check("after deletes", "/Security/PE", "/Security/Beta")

	// Dictionary growth: a new child path /Security/Beta appears after
	// the build (and after the site caches were filled), with a value
	// inside the PE range.
	tbl.Insert(secPE(41, "<Beta>4</Beta>"))
	check("after dictionary growth", "/Security/PE", "/Security/Beta")
	// Both indexes cached the Beta site before the path existed; their
	// path sets must have grown with the dictionary.
	for name, idx := range map[string]*Index{"wildcard": wild, "exact": exact["/Security/Beta"]} {
		beta, n := scanRefs(func(v func(Ref) bool) int {
			return idx.Scan(xpath.MustParsePattern("/Security/Beta"), xpath.OpLe, xpath.NumberValue(100), v)
		})
		if n != 1 || len(beta) != 1 || beta[0].Doc != 40 {
			t.Fatalf("%s index: Beta scan after dictionary growth visited %d %v, want doc 40 only", name, n, beta)
		}
	}

	// A document outside the table dictionary keys under the sentinel
	// path; every site scan reads that range whole (a Beta scan would
	// visit this PE), so only the PE site is compared, and the document
	// carries no numeric sibling of PE.
	foreign := xmltree.MustParse(`<Security><Symbol>F</Symbol><PE>10</PE></Security>`)
	foreign.DocID = 1000
	if foreign.Dict == tbl.PathDict() {
		t.Fatal("foreign document shares the table dictionary")
	}
	wild.OnInsert(foreign)
	exact["/Security/PE"].OnInsert(foreign)
	check("after foreign insert", "/Security/PE")
	hits, _ := scanRefs(func(v func(Ref) bool) int {
		return wild.Scan(xpath.MustParsePattern("/Security/PE"), xpath.OpEq, xpath.NumberValue(10), v)
	})
	if len(hits) == 0 || hits[len(hits)-1].Doc != foreign.DocID {
		t.Fatalf("PE=10 scan missed the sentinel-range document: %v", hits)
	}
	wild.OnDelete(foreign)
	exact["/Security/PE"].OnDelete(foreign)
	check("after foreign delete", "/Security/PE", "/Security/Beta")
}

// TestConcurrentSiteScansDuringGrowth races site scans against inserts
// that keep adding child paths to the table dictionary, so the per-site
// path sets are extended while other scans read them. Readers use more
// site patterns than an index caches, covering the uncached path too.
// Every visited entry must lie on its site's path, and at the end each
// site scan must equal a cold build's. Run under -race.
func TestConcurrentSiteScansDuringGrowth(t *testing.T) {
	const fields = 30
	doc := func(i int) *xmltree.Document {
		return xmltree.MustParse(fmt.Sprintf(
			`<Security><PE>%d</PE><F%d>%d</F%d></Security>`, i%20, i%fields, i%20, i%fields))
	}
	tbl := storage.NewTable("SECURITY")
	for i := 0; i < 5; i++ {
		tbl.Insert(doc(i))
	}
	wild, err := BuildOnline(tbl, def("/Security/*", xpath.NumberVal))
	if err != nil {
		t.Fatal(err)
	}
	defer wild.Release()

	var sites []string
	for k := 0; k < fields; k++ {
		sites = append(sites, fmt.Sprintf("/Security/F%d", k), fmt.Sprintf("/Security//F%d", k), fmt.Sprintf("//F%d", k))
	}
	if len(sites) <= siteCacheCap {
		t.Fatalf("%d site patterns do not exceed the cache cap %d", len(sites), siteCacheCap)
	}
	leaf := func(site string) string { return site[strings.LastIndex(site, "/")+1:] }

	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lit := xpath.NumberValue(10)
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				site := sites[i%len(sites)]
				sp := xpath.MustParsePattern(site)
				// Collect, then check: a scan holds the index lock, and the
				// table's insert path takes it under the table lock.
				var refs []Ref
				collect := func(r Ref) bool { refs = append(refs, r); return true }
				wild.Scan(sp, xpath.OpLt, lit, collect)
				wild.ScanAsOf(sp, xpath.OpLt, lit, tbl.StampCeiling(), collect)
				for _, r := range refs {
					if d, ok := tbl.Get(r.Doc); !ok || d.Node(r.Node).Name != leaf(site) {
						t.Errorf("scan for %s visited %v", site, r)
						return
					}
				}
			}
		}(g)
	}
	for i := 5; i < 300; i++ {
		tbl.Insert(doc(i))
	}
	close(done)
	wg.Wait()

	for _, site := range sites {
		sp := xpath.MustParsePattern(site)
		cold, err := Build(tbl, def("/Security/"+leaf(site), xpath.NumberVal))
		if err != nil {
			t.Fatal(err)
		}
		got, gn := scanRefs(func(v func(Ref) bool) int { return wild.Scan(sp, xpath.OpLt, xpath.NumberValue(10), v) })
		want, wn := scanRefs(func(v func(Ref) bool) int { return cold.Scan(cold.Def.Pattern, xpath.OpLt, xpath.NumberValue(10), v) })
		if gn != wn || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: wildcard visited %d %v, cold exact index %d %v", site, gn, got, wn, want)
		}
	}
}

// TestUncompilablePatternKeysUnderSentinel: an index whose pattern is
// too long for the path NFA evaluates its pattern per document and keys
// every entry under the sentinel path; scans must still find them.
func TestUncompilablePatternKeysUnderSentinel(t *testing.T) {
	const depth = 32
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("<n>")
	}
	b.WriteString("7")
	for i := 0; i < depth; i++ {
		b.WriteString("</n>")
	}
	tbl := storage.NewTable("T")
	tbl.Insert(xmltree.MustParse(b.String()))
	pattern := xpath.MustParsePattern(strings.Repeat("/n", depth))
	if xpath.CompilablePattern(pattern) {
		t.Fatalf("a %d-step pattern compiles; the test needs one that does not", depth)
	}
	idx, err := Build(tbl, Definition{Table: "T", Pattern: pattern, Type: xpath.NumberVal})
	if err != nil {
		t.Fatal(err)
	}
	hits, n := scanRefs(func(v func(Ref) bool) int { return idx.Scan(pattern, xpath.OpEq, xpath.NumberValue(7), v) })
	if n != 1 || len(hits) != 1 || hits[0].Node != depth-1 {
		t.Fatalf("scan visited %d %v, want the innermost element only", n, hits)
	}
}
