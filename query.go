package warehouse

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// Query runs an ad-hoc OLAP query against the warehouse's current serving
// epoch: the same SELECT-FROM-WHERE-GROUPBY class as view definitions,
// plus presentation clauses ORDER BY <output column or 1-based ordinal>
// [ASC|DESC] and LIMIT n [OFFSET m]. Duplicates (for non-aggregate queries
// over bag data) are expanded in the result, SQL-style.
//
// Repeated query shapes are served from the prepared-plan cache: a hit
// skips lexing, parsing and binding entirely and goes straight from the
// SQL bytes to the bound plan (see PlanCacheStats).
//
// Queries stay answerable during an update window and are snapshot-
// isolated: each query pins one published epoch, so it sees exactly the
// pre-window or the post-window state — never a partially installed
// mixture. Safe for concurrent use.
func (w *Warehouse) Query(sql string) ([]Tuple, error) {
	rows, _, err := w.QueryEpoch(sql)
	return rows, err
}

// QueryEpoch is Query returning, additionally, the epoch number the result
// was served from. Epoch numbers are monotonic: once any reader has
// observed epoch e, no later query is served from an epoch before e
// (read-your-epoch consistency across a window commit).
func (w *Warehouse) QueryEpoch(sql string) ([]Tuple, uint64, error) {
	p := w.PinEpoch()
	defer p.Close()
	rows, err := p.Query(sql)
	return rows, p.Epoch(), err
}

// QuerySchema returns the output schema an ad-hoc query would produce,
// without evaluating it.
func (w *Warehouse) QuerySchema(sql string) (Schema, error) {
	p := w.PinEpoch()
	defer p.Close()
	q, err := w.prepareQuery(p.pin.Warehouse(), sql)
	if err != nil {
		return nil, err
	}
	return q.CQ.OutputSchema(), nil
}

// PinEpoch pins the current serving epoch and returns a read view over it.
// Every query and row read through the pin sees the same frozen state, no
// matter how many windows commit in the meantime — this is how a reader
// gets multi-view consistency (e.g. a fact view and a summary over it that
// agree). Close the pin when done: a retired epoch is garbage-collected
// when its last reader unpins.
func (w *Warehouse) PinEpoch() *PinnedEpoch {
	return &PinnedEpoch{w: w, pin: w.epochs.Pin()}
}

// PinnedEpoch is a consistent read view over one published epoch. It is
// cheap to create and must be Closed. A PinnedEpoch is not safe for
// concurrent use by multiple goroutines; each reader pins its own.
type PinnedEpoch struct {
	w   *Warehouse // for the prepared-plan cache
	pin *core.Pin
}

// Epoch returns the pinned epoch's number.
func (p *PinnedEpoch) Epoch() uint64 { return p.pin.Epoch() }

// Close releases the pin. Idempotent.
func (p *PinnedEpoch) Close() { p.pin.Unpin() }

// Query evaluates an ad-hoc query against the pinned state.
func (p *PinnedEpoch) Query(sql string) ([]Tuple, error) {
	c := p.pin.Warehouse()
	q, err := p.w.prepareQuery(c, sql)
	if err != nil {
		return nil, err
	}
	return evaluateQuery(c, q)
}

// Rows returns a view's rows (with multiplicities) in sorted order, as of
// the pinned epoch.
func (p *PinnedEpoch) Rows(name string) ([]CountedRow, error) {
	v := p.pin.Warehouse().View(name)
	if v == nil {
		return nil, fmt.Errorf("warehouse: unknown view %q", name)
	}
	return v.SortedRows(), nil
}

// Size returns |V| as of the pinned epoch.
func (p *PinnedEpoch) Size(name string) (int64, error) {
	v := p.pin.Warehouse().View(name)
	if v == nil {
		return 0, fmt.Errorf("warehouse: unknown view %q", name)
	}
	return v.Cardinality(), nil
}

// Views returns all view names in definition order.
func (p *PinnedEpoch) Views() []string { return p.pin.Warehouse().ViewNames() }

// Internal returns the pinned epoch's core warehouse, frozen, for in-module
// use (see Warehouse.Internal).
func (p *PinnedEpoch) Internal() *core.Warehouse { return p.pin.Warehouse() }

// prepareQuery resolves sql to a bound plan, consulting the prepared-plan
// cache first. The cache key is the normalized SQL plus the snapshot's
// catalog version, so a plan is reused across epochs (window commits don't
// change the catalog) but never across a view definition or snapshot
// restore. Parse errors are not cached.
func (w *Warehouse) prepareQuery(c *core.Warehouse, sql string) (*sqlparse.Query, error) {
	version := c.CatalogVersion()
	if q, ok := w.plans.Get(sql, version); ok {
		return q, nil
	}
	q, err := sqlparse.ParseQuery(sql, c.ViewSchema)
	if err != nil {
		return nil, err
	}
	w.plans.Put(sql, version, q)
	return q, nil
}

// evaluateQuery runs a bound plan against one core snapshot and applies
// the presentation clauses. The plan may be shared with concurrent queries
// (it comes from the cache) and is never mutated. The distinct rows are
// sorted once, by the ORDER BY keys and then by relation.CompareTuples (no
// two distinct rows tie); OFFSET and LIMIT count copies, and only the copies
// returned are made.
func evaluateQuery(c *core.Warehouse, q *sqlparse.Query) ([]Tuple, error) {
	rows, err := c.Evaluate(q.CQ)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(rows, func(a, b CountedRow) int {
		for _, k := range q.OrderBy {
			if c := relation.Compare(a.Tuple[k.Column], b.Tuple[k.Column]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return relation.CompareTuples(a.Tuple, b.Tuple)
	})
	skip, take := int64(q.Offset), int64(q.Limit) // take < 0, no LIMIT, never reaches 0
	var out []Tuple
	for _, r := range rows {
		n := r.Count - skip
		skip = max(-n, 0)
		for ; n > 0 && take != 0; n-- {
			out = append(out, r.Tuple)
			take--
		}
	}
	return out, nil
}
