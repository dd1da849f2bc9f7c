package main

import (
	"fmt"
	"math/rand"

	"xixa/internal/storage"
	"xixa/internal/tpox"
)

// Scale is the TPoX scale every workload runs at: 4,000 securities,
// 8,000 orders and 2,000 customers.
const Scale = 4

// Key-space sizes at Scale, matching tpox.DefaultConfig.
const (
	nSecurities = 1000 * Scale
	nOrders     = 2000 * Scale
	nCustomers  = 500 * Scale
)

// Stmt is one generated statement. Class names its shape (Q1..Q11 for
// the TPoX queries, ins/upd/del for writes, syn for synthetic paths);
// per-class numbers in the report and the traced run group by it.
type Stmt struct {
	Text  string
	Class string
	Write bool
}

// stream hands out one session's statements in order.
type stream interface {
	next() Stmt
}

// listStream cycles a fixed statement list. Read streams are finite so
// the untuned oracle only has to answer each distinct statement once.
type listStream struct {
	stmts []Stmt
	pos   int
}

func (s *listStream) next() Stmt {
	st := s.stmts[s.pos%len(s.stmts)]
	s.pos++
	return st
}

// zipfKeys draws indexes in [0,n) with a Zipf skew (s=1.1). A seeded
// permutation decides which keys are hot, so a different seed moves the
// hot set but keeps the skew.
type zipfKeys struct {
	z    *rand.Zipf
	perm []int
}

func newZipfKeys(r *rand.Rand, n int) *zipfKeys {
	return &zipfKeys{z: rand.NewZipf(r, 1.1, 1, uint64(n-1)), perm: r.Perm(n)}
}

func (k *zipfKeys) draw() int { return k.perm[k.z.Uint64()] }

var (
	sectors    = []string{"Energy", "Technology", "Finance", "Healthcare", "Utilities", "Materials", "Industrials", "ConsumerStaples", "Telecom", "RealEstate"}
	industries = []string{"OilGas", "Software", "Banking", "Pharma", "Electric", "Mining", "Aerospace", "Food", "Wireless", "REIT", "Semiconductors", "Retail", "Insurance", "Biotech", "Chemicals", "Railroads", "Media", "Gaming", "Shipping", "Agriculture"}
	ratings    = []string{"AAA", "AA", "A", "BBB", "BB"}
	countries  = []string{"US", "DE", "UK", "JP", "CA", "FR", "AU", "BR"}
)

// readGen renders the TPoX Q1-Q11 shapes (tpox.Queries). Key literals
// (symbols, order and customer IDs) are drawn Zipf-skewed over the
// whole key space; category and range literals are drawn uniformly, so
// a seed moves the hot keys without changing how much work a range
// predicate selects on average.
type readGen struct {
	r              *rand.Rand
	sym, ord, cust *zipfKeys
}

func newReadGen(r *rand.Rand) *readGen {
	return &readGen{
		r:    r,
		sym:  newZipfKeys(r, nSecurities),
		ord:  newZipfKeys(r, nOrders),
		cust: newZipfKeys(r, nCustomers),
	}
}

func (g *readGen) pick(vals []string) string { return vals[g.r.Intn(len(vals))] }

func symbol(i int) string { return tpox.SymbolOf(i) }

// shape renders one TPoX query shape with fresh literals.
func (g *readGen) shape(q int) Stmt {
	var text string
	switch q {
	case 1:
		text = fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "%s" return $sec`, symbol(g.sym.draw()))
	case 2:
		text = fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security[Yield>%.1f] where $sec/SecInfo/*/Sector = "%s" return <Security>{$sec/Name}</Security>`,
			float64(g.r.Intn(100))/10, g.pick(sectors))
	case 3:
		text = fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec//Industry = "%s" return <R>{$sec/Symbol}{$sec/Name}</R>`, g.pick(industries))
	case 4:
		text = fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security[PE<%d.0] where $sec/Yield >= %d.0 return <R>{$sec/Symbol}{$sec/PE}{$sec/Yield}</R>`,
			5+g.r.Intn(40), g.r.Intn(10))
	case 5:
		text = fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "%s" return $sec/Price/LastTrade`, symbol(g.sym.draw()))
	case 6:
		text = fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec/SecInfo/BondInformation/CreditRating = "%s" return <R>{$sec/Symbol}</R>`, g.pick(ratings))
	case 7:
		text = fmt.Sprintf(`for $o in ORDERS('ODOC')/Order where $o/@ID = "ORD%07d" return $o`, g.ord.draw())
	case 8:
		text = fmt.Sprintf(`for $o in ORDERS('ODOC')/Order[Type="%s"] where $o/CustID = "C%05d" return <O>{$o/Symbol}{$o/Quantity}</O>`,
			g.pick([]string{"buy", "sell"}), g.cust.draw())
	case 9:
		text = fmt.Sprintf(`for $o in ORDERS('ODOC')/Order[Quantity>%d] where $o/Symbol = "%s" return $o`, 1000*g.r.Intn(10), symbol(g.sym.draw()))
	case 10:
		text = fmt.Sprintf(`for $c in CUSTACC('CADOC')/Customer where $c/@id = "C%05d" return $c`, g.cust.draw())
	case 11:
		text = fmt.Sprintf(`for $c in CUSTACC('CADOC')/Customer where $c/Accounts/Account/Balance > %d.0 and $c/Nationality = "%s" return <R>{$c/Name/Last}</R>`,
			9000+10*g.r.Intn(100), g.pick(countries))
	case 12:
		// Q2 without its Yield range: a sector scan no Yield update can
		// change, so sharded-mix reads stay checkable while it writes.
		text = fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec/SecInfo/*/Sector = "%s" return <Security>{$sec/Name}</Security>`, g.pick(sectors))
	default:
		panic(fmt.Sprintf("no TPoX shape Q%d", q))
	}
	return Stmt{Text: text, Class: fmt.Sprintf("Q%d", q)}
}

// The read-tuned mix: point lookups dominate, as in TPoX; the range and
// scan shapes set the tail.
var (
	tpoxShapes  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	tpoxWeights = []int{15, 4, 4, 3, 15, 4, 15, 10, 10, 15, 4}
)

// everyShape returns perShape statements of every TPoX shape in shape
// order: the warm-up pass, so every shape is in the capture before the
// setup tuning rounds.
func (g *readGen) everyShape(shapes []int, perShape int) []Stmt {
	out := make([]Stmt, 0, perShape*len(shapes))
	for _, q := range shapes {
		for i := 0; i < perShape; i++ {
			out = append(out, g.shape(q))
		}
	}
	return out
}

// list returns n statements whose shapes follow the weights exactly
// (up to rounding), in a seeded order: a seed changes the order and
// the literals, never how many statements of each shape there are.
func (g *readGen) list(n int, shapes, weights []int) []Stmt {
	total := 0
	for _, w := range weights {
		total += w
	}
	order := make([]int, 0, n)
	for i, q := range shapes {
		for k := 0; k < n*weights[i]/total; k++ {
			order = append(order, q)
		}
	}
	for len(order) < n {
		order = append(order, shapes[0])
	}
	g.r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	out := make([]Stmt, n)
	for i, q := range order {
		out[i] = g.shape(q)
	}
	return out
}

// writeGen is one session's write stream: order inserts with unique
// IDs, Yield updates of the session's own securities, and deletes of
// the session's own inserted orders. Sessions own disjoint keys:
// securities whose index is congruent to the session number modulo
// owners, and orders whose IDs and CustID carry the session number.
// Inserted orders name a symbol no security has, so no TPoX read shape
// ever matches them. With ordersOnly the stream leaves SECURITY alone:
// its Yield updates become order inserts.
type writeGen struct {
	r          *rand.Rand
	session    int
	owners     int
	ordersOnly bool
	own        *zipfKeys
	nextOrd    int
	live       []string          // inserted, not yet deleted order IDs (oldest first)
	yields     map[string]string // symbol -> last Yield written
}

func newWriteGen(r *rand.Rand, session, owners int) *writeGen {
	return &writeGen{
		r: r, session: session, owners: owners,
		own:    newZipfKeys(r, nSecurities/owners),
		yields: make(map[string]string),
	}
}

func (w *writeGen) ownSymbol() string { return symbol(w.own.draw()*w.owners + w.session) }

// custID marks the session's inserted orders.
func (w *writeGen) custID() string { return fmt.Sprintf("CW%d", w.session) }

func (w *writeGen) next() Stmt {
	x := w.r.Intn(100)
	switch {
	case x < 35 && len(w.live) > 0:
		id := w.live[0]
		w.live = w.live[1:]
		return Stmt{Class: "del", Write: true, Text: fmt.Sprintf(`delete from ORDERS where /Order[@ID="%s"]`, id)}
	case x < 65 && !w.ordersOnly:
		sym := w.ownSymbol()
		y := fmt.Sprintf("%d.%02d", w.r.Intn(10), w.r.Intn(100))
		w.yields[sym] = y
		return Stmt{Class: "upd", Write: true, Text: fmt.Sprintf(`update SECURITY set Yield = %s where /Security[Symbol="%s"]`, y, sym)}
	default:
		id := fmt.Sprintf("ORDW%d%07d", w.session, w.nextOrd)
		w.nextOrd++
		w.live = append(w.live, id)
		return Stmt{Class: "ins", Write: true, Text: fmt.Sprintf(
			`insert into ORDERS value <Order ID="%s"><CustID>%s</CustID><Symbol>SYMW%d</Symbol><Quantity>%d</Quantity><Price>%d.25</Price><Type>buy</Type><Status>new</Status><OrderDate>2007-06-12</OrderDate></Order>`,
			id, w.custID(), w.session, 1+w.r.Intn(10000), 10+w.r.Intn(200))}
	}
}

// verify returns the final-state queries for this session's writes: the
// number of its live inserted orders, and one query per security it
// updated that matches only if the security holds the last Yield the
// session wrote.
func (w *writeGen) verify() []Stmt {
	out := []Stmt{{Class: "verify", Text: fmt.Sprintf(`for $o in ORDERS('ODOC')/Order where $o/CustID = "%s" return $o`, w.custID())}}
	for i := 0; i < nSecurities; i++ {
		sym := symbol(i)
		if y, ok := w.yields[sym]; ok {
			out = append(out, Stmt{Class: "verify", Text: fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security[Yield=%s] where $sec/Symbol = "%s" return $sec`, y, sym)})
		}
	}
	return out
}

// keyedReadGen renders point reads of one write session's own keys:
// its securities by Symbol, and its recently inserted orders by ID.
type keyedReadGen struct {
	w *writeGen
	g *readGen
}

func (k keyedReadGen) next() Stmt {
	w := k.w
	if len(w.live) > 0 && w.r.Intn(3) == 0 {
		id := w.live[w.r.Intn(len(w.live))]
		return Stmt{Class: "Q7", Text: fmt.Sprintf(`for $o in ORDERS('ODOC')/Order where $o/@ID = "%s" return $o`, id)}
	}
	if w.r.Intn(2) == 0 {
		return Stmt{Class: "Q1", Text: fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "%s" return $sec`, w.ownSymbol())}
	}
	return Stmt{Class: "Q5", Text: fmt.Sprintf(`for $sec in SECURITY('SDOC')/Security where $sec/Symbol = "%s" return $sec/Price/LastTrade`, w.ownSymbol())}
}

// mixStream interleaves a read stream and a write stream, writePct
// percent writes.
type mixStream struct {
	r        *rand.Rand
	reads    stream
	writes   *writeGen
	writePct int
}

func (m *mixStream) next() Stmt {
	if m.r.Intn(100) < m.writePct {
		return m.writes.next()
	}
	return m.reads.next()
}

// driftPhase is one advise-drift phase: a pool of distinct statements,
// fewer than the capture ring holds, that every pass repeats.
type driftPhase struct {
	family string
	pool   []Stmt
}

// driftFamilies is the number of query families advise-drift cycles.
const driftFamilies = 3

// driftPool is the number of distinct statements in a phase's pool.
const driftPool = 75

// newDriftPhase builds phase i: family i mod 3 is the TPoX security
// queries, the order and customer queries, or the paper's §VII-C
// synthetic random-path queries with a per-phase seed.
func newDriftPhase(r *rand.Rand, db *storage.Database, i int) driftPhase {
	g := newReadGen(r)
	p := driftPhase{family: []string{"security", "order-customer", "synthetic"}[i%driftFamilies]}
	seen := make(map[string]bool)
	for tries := 0; len(p.pool) < driftPool && tries < 100*driftPool; tries++ {
		var st Stmt
		switch i % driftFamilies {
		case 0:
			st = g.shape([]int{1, 2, 3, 4, 5, 6, 1, 5}[tries%8])
		case 1:
			st = g.shape([]int{7, 8, 9, 10, 11, 7, 10}[tries%7])
		default:
			qs := tpox.SyntheticQueries(db, 1, r.Int63())
			st = Stmt{Text: qs[0], Class: "syn"}
		}
		if !seen[st.Text] {
			seen[st.Text] = true
			p.pool = append(p.pool, st)
		}
	}
	return p
}

// pass repeats every pool statement reps times: the first copy in pool
// order, the rest in a seeded order. The capture then sees the same
// statements, frequencies and first-seen order whatever the seed, so
// the advisor's decisions do not depend on it.
func (p driftPhase) pass(r *rand.Rand, reps int) []Stmt {
	out := make([]Stmt, 0, reps*len(p.pool))
	for k := 0; k < reps; k++ {
		out = append(out, p.pool...)
	}
	rest := out[len(p.pool):]
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return out
}
