package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	warehouse "repro"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/tpcd"
)

// batch is one generated change set: a delta per base view. The generator
// has already applied it to its mirror, so the mirror is what the warehouse
// must hold once the batch is installed.
type batch struct {
	deltas  map[string]*warehouse.Delta
	changes int // row-changes: inserts + deletes
	inserts int
	// maxID is the highest fresh key this batch inserts into the view the
	// watermark is defined over (retail SALES); 0 when it inserts none.
	maxID int64
}

// views lists the batch's views in sorted order, so staging order and the
// digest do not depend on map iteration.
func (b batch) views() []string {
	vs := make([]string, 0, len(b.deltas))
	for v := range b.deltas {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return vs
}

// digest fingerprints the batch: same seed and same call sequence give the
// same digest, which is how the tests pin generator determinism.
func (b batch) digest() uint64 {
	h := fnv.New64a()
	for _, v := range b.views() {
		fmt.Fprintf(h, "%s:%016x;", v, b.deltas[v].Digest())
	}
	return h.Sum64()
}

// changeGen produces the seeded change stream of one workload. The program
// under test only ever sees the batches; the generator keeps a mirror of the
// base rows to sample deletes from and to check the final state against.
type changeGen interface {
	// next draws a batch of about n row-changes.
	next(n int) batch
	// mirror returns, per changing base view, the rows it must hold now.
	mirror() map[string][]relation.Tuple
}

// credit turns a fractional per-call quota into whole counts that add up
// exactly over many calls, so a 20-change submit still deletes a customer
// once in a while and the insert/delete mix does not depend on batch size.
type credit float64

func (c *credit) take(q float64) int {
	*c += credit(q)
	k := int(*c)
	*c -= credit(k)
	return k
}

// removeAt deletes rows[i] by swapping the last row in; order is not kept.
func removeAt(rows []relation.Tuple, i int) []relation.Tuple {
	rows[i] = rows[len(rows)-1]
	return rows[:len(rows)-1]
}

// ---- TPC-D ----

// tpcdChanging are the views the TPC-D stream changes, as in tpcd.Mixed:
// the fact tables and the two large dimensions. REGION and NATION are fixed.
var tpcdChanging = []string{tpcd.Customer, tpcd.Order, tpcd.LineItem, tpcd.Supplier}

// tpcdGen generates TPC-D change batches: deletes sampled uniformly from the
// current rows, inserts with fresh keys following tpcd's column
// distributions. Half of a view's quota deletes and half inserts, and a
// view's share of a batch is its share of the rows, so a batch of 1 % of
// the rows is tpcd.Mixed(0.5 %, 0.5 %).
type tpcdGen struct {
	rng     *rand.Rand
	schemas map[string]relation.Schema
	rows    map[string][]relation.Tuple
	nextKey map[string]int64
	weight  map[string]float64
	del     map[string]*credit
	ins     map[string]*credit
	lineNo  int64
}

func newTPCDGen(seed int64, rows map[string][]relation.Tuple) *tpcdGen {
	g := &tpcdGen{
		rng:     rand.New(rand.NewSource(seed)),
		schemas: tpcd.Schemas(),
		rows:    make(map[string][]relation.Tuple),
		nextKey: make(map[string]int64),
		weight:  make(map[string]float64),
		del:     make(map[string]*credit),
		ins:     make(map[string]*credit),
		// Loaded orders carry line numbers 0–6; fresh lines start above.
		lineNo: 1000,
	}
	total := 0
	for _, v := range tpcdChanging {
		g.rows[v] = append([]relation.Tuple(nil), rows[v]...)
		total += len(rows[v])
	}
	for _, v := range tpcdChanging {
		var maxKey int64 = -1
		for _, r := range g.rows[v] {
			if k := r[0].Int(); k > maxKey {
				maxKey = k
			}
		}
		g.nextKey[v] = maxKey + 1
		g.weight[v] = float64(len(g.rows[v])) / float64(total)
		g.del[v], g.ins[v] = new(credit), new(credit)
	}
	return g
}

// rowCount is the number of rows in the changing views: the base a batch
// fraction is taken of.
func (g *tpcdGen) rowCount() int {
	n := 0
	for _, v := range tpcdChanging {
		n += len(g.rows[v])
	}
	return n
}

func (g *tpcdGen) mirror() map[string][]relation.Tuple { return g.rows }

func (g *tpcdGen) next(n int) batch {
	b := batch{deltas: make(map[string]*warehouse.Delta)}
	// The small views draw on their credit; LINEITEM, by far the largest,
	// takes what is left, so the batch has exactly n changes and a queue
	// bounded in row-changes fills with a whole number of submits.
	quota := make(map[string][2]int)
	rest := n
	for _, v := range tpcdChanging {
		if v == tpcd.LineItem {
			continue
		}
		q := [2]int{g.del[v].take(float64(n) * g.weight[v] / 2), g.ins[v].take(float64(n) * g.weight[v] / 2)}
		quota[v] = q
		rest -= q[0] + q[1]
	}
	quota[tpcd.LineItem] = [2]int{rest / 2, rest - rest/2}
	for _, v := range tpcdChanging {
		nDel, nIns := quota[v][0], quota[v][1]
		if nDel+nIns == 0 {
			continue
		}
		d := delta.New(g.schemas[v])
		for i := 0; i < nDel; i++ {
			at := g.rng.Intn(len(g.rows[v]))
			d.Add(g.rows[v][at], -1)
			g.rows[v] = removeAt(g.rows[v], at)
		}
		for i := 0; i < nIns; i++ {
			row := g.fresh(v)
			d.Add(row, 1)
			g.rows[v] = append(g.rows[v], row)
		}
		b.changes += nDel + nIns
		b.inserts += nIns
		b.deltas[v] = d
	}
	return b
}

var (
	tpcdSegments    = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	tpcdReturnFlags = []string{"R", "A", "N"}
	tpcdMinDate     = relation.MustDate("1992-01-01").Days()
	tpcdMaxDate     = relation.MustDate("1998-08-02").Days()
)

// fresh builds a new row with an unused key. Foreign keys point at rows that
// exist now (a fresh order's customer, a fresh line's order), so inserted
// rows join and reach the summary views the way loaded rows do.
func (g *tpcdGen) fresh(view string) relation.Tuple {
	key := g.nextKey[view]
	g.nextKey[view] = key + 1
	rng := g.rng
	switch view {
	case tpcd.Supplier:
		return relation.Tuple{
			relation.NewInt(key),
			relation.NewString(fmt.Sprintf("Supplier#%09d", key)),
			relation.NewInt(rng.Int63n(25)),
			relation.NewFloat(float64(rng.Intn(1_000_000))/100 - 1000),
		}
	case tpcd.Customer:
		return relation.Tuple{
			relation.NewInt(key),
			relation.NewString(fmt.Sprintf("Customer#%09d", key)),
			relation.NewInt(rng.Int63n(25)),
			relation.NewString(tpcdSegments[rng.Intn(len(tpcdSegments))]),
			relation.NewFloat(float64(rng.Intn(1_100_000))/100 - 1000),
		}
	case tpcd.Order:
		cust := g.rows[tpcd.Customer]
		return relation.Tuple{
			relation.NewInt(key),
			cust[rng.Intn(len(cust))][0],
			relation.NewDate(tpcdMinDate + rng.Int63n(tpcdMaxDate-tpcdMinDate+1)),
			relation.NewInt(rng.Int63n(2)),
			relation.NewFloat(float64(rng.Intn(50_000_000)) / 100),
		}
	case tpcd.LineItem:
		orders, supp := g.rows[tpcd.Order], g.rows[tpcd.Supplier]
		g.lineNo++
		return relation.Tuple{
			orders[rng.Intn(len(orders))][0],
			relation.NewInt(g.lineNo),
			supp[rng.Intn(len(supp))][0],
			// Quarter-unit prices and discounts in 64ths: see exactLineItem.
			relation.NewFloat(900 + float64(rng.Intn(41_640))/4),
			relation.NewFloat(float64(rng.Intn(7)) / 64),
			relation.NewString(tpcdReturnFlags[rng.Intn(len(tpcdReturnFlags))]),
			relation.NewDate(tpcdMinDate + rng.Int63n(tpcdMaxDate-tpcdMinDate+1) + rng.Int63n(121) - 59),
		}
	}
	panic("bench: no fresh row for view " + view)
}

// ---- retail ----

const (
	retailSales  = "SALES"
	retailStores = "STORES"
)

var retailSalesSchema = relation.Schema{
	{Name: "sale_id", Kind: relation.KindInt},
	{Name: "store_id", Kind: relation.KindInt},
	{Name: "amount", Kind: relation.KindFloat},
}

// retailGuard keeps deletes away from the newest sale ids. The watermark view
// is MAX(sale_id): a reader dates an insert by seeing the watermark reach it,
// so the current maximum must not be deleted from under it.
const retailGuard = 1024

// retailGen generates the SALES stream: half inserts with increasing
// sale_id, half deletes of rows older than the guard, so the table keeps its
// size — a fact table with a retention window — and a window late in the run
// costs what an early one does.
type retailGen struct {
	rng      *rand.Rand
	stores   int
	nextID   int64
	sales    []relation.Tuple
	del, ins credit
}

func newRetailGen(seed int64, stores int) *retailGen {
	return &retailGen{rng: rand.New(rand.NewSource(seed)), stores: stores, nextID: 1}
}

// sale builds the next SALES row and adds it to the mirror. Amounts are
// quarter units: exact in binary, so SUM(amount) does not depend on the
// order rows are folded in.
func (g *retailGen) sale() relation.Tuple {
	row := relation.Tuple{
		relation.NewInt(g.nextID),
		relation.NewInt(int64(g.rng.Intn(g.stores) + 1)),
		relation.NewFloat(float64(g.rng.Intn(10000)) / 4),
	}
	g.nextID++
	g.sales = append(g.sales, row)
	return row
}

func (g *retailGen) mirror() map[string][]relation.Tuple {
	return map[string][]relation.Tuple{retailSales: g.sales}
}

// reseed starts the seeded stream after the fixed initial load.
func (g *retailGen) reseed(seed int64) { g.rng = rand.New(rand.NewSource(seed)) }

func (g *retailGen) next(n int) batch {
	b := batch{deltas: make(map[string]*warehouse.Delta)}
	d := delta.New(retailSalesSchema)
	nDel := g.del.take(float64(n) / 2)
	nIns := g.ins.take(float64(n) / 2)
	for i := 0; i < nDel; i++ {
		// A few draws find a row outside the guard; a miss just makes this
		// batch one change smaller.
		for try := 0; try < 8; try++ {
			at := g.rng.Intn(len(g.sales))
			if g.sales[at][0].Int() < g.nextID-retailGuard {
				d.Add(g.sales[at], -1)
				g.sales = removeAt(g.sales, at)
				b.changes++
				break
			}
		}
	}
	for i := 0; i < nIns; i++ {
		row := g.sale()
		d.Add(row, 1)
		b.maxID = row[0].Int()
		b.changes++
		b.inserts++
	}
	b.deltas[retailSales] = d
	return b
}
