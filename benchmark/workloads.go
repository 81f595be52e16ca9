package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"pip/internal/tpch"
)

// table is one catalog table: its name, the VALUES tuple of one row and
// the argument rows bound into it.
type table struct {
	name  string
	tuple string
	rows  [][]any
}

// catalog is everything the set-up phase sends through the wire.
type catalog struct {
	data   *tpch.Data
	ddl    []string
	tables []table
}

// loadStmt is one statement of the load, as sent.
type loadStmt struct {
	text string
	args []any
}

// loadBatch is how many rows one load INSERT carries. Single-row loading
// made set-up a chain of 4.6 k fsyncs, and this box's fsync moves between
// 0.1 and 2 ms with the minute; at 1 024 rows per durable statement the load
// is the server's own work around a dozen fsyncs.
const loadBatch = 1024

// statements lists the load in wire order: the DDL, then every table's rows
// in multi-row prepared INSERTs.
func (c *catalog) statements() []loadStmt {
	var out []loadStmt
	for _, ddl := range c.ddl {
		out = append(out, loadStmt{text: ddl})
	}
	for _, t := range c.tables {
		for lo := 0; lo < len(t.rows); lo += loadBatch {
			chunk := t.rows[lo:min(lo+loadBatch, len(t.rows))]
			st := loadStmt{text: "INSERT INTO " + t.name + " VALUES " + strings.Repeat(t.tuple+", ", len(chunk)-1) + t.tuple}
			for _, row := range chunk {
				st.args = append(st.args, row...)
			}
			out = append(out, st)
		}
	}
	return out
}

const (
	eventTuple  = "(?, ?, CREATE_VARIABLE('Normal', ?, 2))"
	eventInsert = "INSERT INTO events VALUES " + eventTuple
)

// eventArgs derives an events row from its id alone, so concurrent clients
// never need to coordinate and a replay can regenerate any row.
func eventArgs(id int64) []any {
	return []any{id, fmt.Sprintf("k%d", id%8), float64(id % 100)}
}

// dataSeed generates the catalog of every run. The data is held fixed and
// --seed orders the requests: what a sampled statement costs depends on the
// rows it meets (the same binary answered 73 sampled-agg reads a second on
// one generated catalog and 97 on another, each within 1 % of itself), and
// a benchmark that compares builds must not measure that as spread.
const dataSeed = 1

// buildCatalog generates the TPC-H-shaped tables of the paper's Q1 and Q2
// models, plus preload rows of the events table.
func buildCatalog(preload int) *catalog {
	d := tpch.Generate(tpch.DefaultScale(), dataSeed)
	c := &catalog{data: d, ddl: []string{
		"CREATE TABLE customers (cust, price, morders)",
		"CREATE TABLE suppliers (supp, nation, manuf, ship)",
		"CREATE TABLE orders (okey, cust, supp, price)",
		"CREATE TABLE events (id, kind, val)",
	}}
	cust := table{name: "customers", tuple: "(?, ?, CREATE_VARIABLE('Poisson', ?))"}
	for _, cu := range d.Customers {
		cust.rows = append(cust.rows, []any{int64(cu.CustKey), cu.AvgOrderPrice, poissonLambda(cu)})
	}
	supp := table{name: "suppliers", tuple: "(?, ?, CREATE_VARIABLE('Normal', ?, ?), CREATE_VARIABLE('Normal', ?, ?))"}
	for _, s := range d.Suppliers {
		supp.rows = append(supp.rows, []any{int64(s.SuppKey), s.Nation, s.ManufMean, s.ManufStd, s.ShipMean, s.ShipStd})
	}
	ord := table{name: "orders", tuple: "(?, ?, ?, ?)"}
	for _, o := range d.Orders {
		ord.rows = append(ord.rows, []any{int64(o.OrderKey), int64(o.CustKey), int64(o.SuppKey), o.Price})
	}
	ev := table{name: "events", tuple: eventTuple}
	for i := 0; i < preload; i++ {
		ev.rows = append(ev.rows, eventArgs(int64(i)))
	}
	c.tables = []table{cust, supp, ord, ev}
	return c
}

// poissonLambda is the paper's Q1 growth model (internal/bench.Q1PIP).
func poissonLambda(c tpch.Customer) float64 { return c.GrowthRate() * 10 }

// statement is one statement text a workload sends. Reads bind exactly one
// integer placeholder, drawn from keys.
type statement struct {
	name  string
	text  string
	write bool
	keys  []int64
	// truth, when set, returns the closed-form answer for one result row
	// (ok=false skips rows whose truth is too small for a relative error).
	truth func(d *tpch.Data, key int64, row []any) (want float64, ok bool)
}

// workload is a named statement mix. Each closed-loop client cycles through
// pattern (indices into stmts) forever. Where pacedEvery is set, pacedConns
// more connections each send stmts[paced] open loop, all at the same
// instants pacedEvery apart, so that many commits are in flight together.
type workload struct {
	name       string
	why        string
	stmts      []statement
	pattern    []int
	clients    int // closed-loop connections of the untraced run
	preload    int // events rows loaded during set-up
	paced      int
	pacedEvery time.Duration
}

// pacedConns is how many connections send the paced statement.
const pacedConns = 2

func seq(lo, hi, step int64) []int64 {
	var out []int64
	for k := lo; k <= hi; k += step {
		out = append(out, k)
	}
	return out
}

const pointReadText = "SELECT expected_sum(morders * price) FROM customers WHERE cust = ?"

func pointRead(customers int) statement {
	return statement{name: "point-read", text: pointReadText, keys: seq(1, int64(customers), 1)}
}

// confThreshold is the delivery-time cut of the conf() statement; rows whose
// true probability is below confFloor are left out of rms_rel_err because a
// relative error against a near-zero truth measures nothing.
const (
	confThreshold = 12.0
	confFloor     = 0.1
)

func workloads() []workload {
	sc := tpch.DefaultScale()
	nonlinear := statement{
		name: "nonlinear-sum",
		text: "SELECT expected_sum(morders*morders + morders*price) FROM customers WHERE cust > ?",
		keys: seq(260, 470, 30),
		truth: func(d *tpch.Data, key int64, _ []any) (float64, bool) {
			var sum float64
			for _, c := range d.Customers {
				if int64(c.CustKey) > key {
					l := poissonLambda(c)
					sum += l + l*l + l*c.AvgOrderPrice // E[X²] = λ + λ² for Poisson
				}
			}
			return sum, true
		},
	}
	groupStddev := statement{
		name: "group-stddev",
		text: "SELECT nation, expected_stddev(manuf + ship) FROM suppliers WHERE supp > ? GROUP BY nation",
		keys: seq(40, 75, 5),
	}
	conf := statement{
		name: "conf",
		text: fmt.Sprintf("SELECT supp, conf() FROM suppliers WHERE manuf + ship > %g AND supp > ?", confThreshold),
		keys: seq(60, 95, 5),
		truth: func(d *tpch.Data, _ int64, row []any) (float64, bool) {
			s := d.Suppliers[row[0].(int64)-1]
			mu := s.ManufMean + s.ShipMean
			sigma := math.Hypot(s.ManufStd, s.ShipStd)
			p := 0.5 * math.Erfc((confThreshold-mu)/sigma/math.Sqrt2)
			return p, p >= confFloor
		},
	}
	rejection := statement{
		name: "rejection",
		text: "SELECT supp, expectation(manuf) FROM suppliers WHERE manuf + ship > 22 AND supp > ?",
		keys: seq(76, 97, 3),
	}
	scan := statement{
		name: "filter-project",
		text: "SELECT okey, price*1.08 FROM orders WHERE price > 250 AND okey > ?",
		keys: seq(1000, 3250, 150),
	}
	join := statement{
		name: "hash-join",
		text: "SELECT o.okey, c.price, o.price FROM orders o, customers c WHERE o.cust = c.cust AND o.okey > ?",
		keys: seq(1000, 3250, 150),
	}
	insert := statement{name: "insert", text: eventInsert, write: true}
	return []workload{
		{
			name:    "point-read",
			why:     "one closed-form row per request: the cost is HTTP, driver and SQL parse/plan, so wire and plan-cache work shows here and sampler work must not",
			stmts:   []statement{pointRead(sc.Customers)},
			pattern: []int{0},
			clients: 1,
		},
		{
			name:    "sampled-agg",
			why:     "four sampled statements (nonlinear sum, grouped stddev, conf, rejection-sampled expectation): time goes to sampler and expr, so kernel work shows here and wire work must not",
			stmts:   []statement{nonlinear, groupStddev, conf, rejection},
			pattern: []int{0, 1, 2, 3},
			clients: 1,
		},
		{
			name:    "scan-stream",
			why:     "deterministic filter-project and hash join streaming one to three thousand rows per request with zero samples: operators, row encoding, per-row flush and driver decode dominate",
			stmts:   []statement{scan, join},
			pattern: []int{0, 1},
			clients: 1,
		},
		{
			name:    "ingest-mixed",
			why:     "point reads beside a steady stream of durable single-row inserts, two in flight at a time: commits, fsyncs and snapshot cycles contend with reads on a catalog that changes all the time",
			stmts:   []statement{insert, pointRead(sc.Customers)},
			pattern: []int{1},
			clients: 1,
			preload: 4000,
			// 50 inserts a second, a trickle beside what two closed-loop
			// committers reach (2 400). pipd has one CPU here, so one Go
			// processor, and a commit waiting in fsync holds it: every fsync
			// stalls the reads for as long as it lasts, and this disk's fsync
			// takes 0.1 ms in a good minute and 2 ms in a bad one. At this
			// rate that is 0.5 to 10 % of the reads' time; at 400 a second
			// the same binary read 2 700 and 1 200 times a second an hour apart.
			paced:      0,
			pacedEvery: 40 * time.Millisecond,
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one operation of a client's stream: a statement and its key (the
// bound placeholder for reads, the row id for writes).
type op struct {
	stmt int
	key  int64
}

// opStream yields a client's operations. Read keys come from a shuffled pass
// over the statement's whole key domain, reshuffled when exhausted: every
// seed orders the keys differently but covers the same multiset, so a run's
// mean cost does not depend on which keys the seed happened to favour.
type opStream struct {
	w       *workload
	pattern []int
	rng     *rand.Rand
	pos     int
	decks   [][]int64
	nextID  int64
	stride  int64
}

// newOpStream makes client's stream out of clients for one round of a run;
// it cycles through pattern. Write ids start after the preload and
// interleave between clients so they never collide.
func newOpStream(w *workload, pattern []int, seed uint64, round, client, clients int) *opStream {
	return &opStream{
		w:       w,
		pattern: pattern,
		rng:     rand.New(rand.NewPCG(seed, uint64(round*clients+client)+1)),
		decks:   make([][]int64, len(w.stmts)),
		nextID:  int64(w.preload + client),
		stride:  int64(clients),
	}
}

func (s *opStream) next() op {
	i := s.pattern[s.pos%len(s.pattern)]
	s.pos++
	st := &s.w.stmts[i]
	if st.write {
		id := s.nextID
		s.nextID += s.stride
		return op{stmt: i, key: id}
	}
	if len(s.decks[i]) == 0 {
		deck := append([]int64(nil), st.keys...)
		s.rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		s.decks[i] = deck
	}
	key := s.decks[i][0]
	s.decks[i] = s.decks[i][1:]
	return op{stmt: i, key: key}
}
