package check

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	warehouse "repro"
)

// Point is one trial: a point in the product of the axes along which a
// window's execution can vary without its outcome being allowed to. The
// zero value of every axis is its default — the Random catalog of seed 0,
// one cold window planned by MinWork and run sequentially on the default
// engine, unjournaled, nobody watching — so a table of points names only
// what it varies, and String prints only that.
type Point struct {
	// Seed draws the catalog's shape and data and every change batch.
	Seed    int64   `axis:"seed"`
	Catalog Catalog `axis:"catalog"`
	// Planner plans every window: a warehouse.PlannerName ("" = minwork).
	Planner string `axis:"planner"`
	// Mode schedules the strategy ("" = sequential), Workers bounds the
	// scheduler's pool (0 = GOMAXPROCS).
	Mode    warehouse.Mode `axis:"mode"`
	Workers int            `axis:"workers"`
	// Skip sets SkipEmptyDeltas, the one option that changes Work figures.
	Skip bool `axis:"skip"`
	// Windows is the length of the stream (0 and 1 are one window). The first
	// window runs on cold indexes — it builds every one it probes — the ones
	// after it on warm.
	Windows int `axis:"windows"`
	// Fault strikes the last window: "" (none); "crash:<point>@<n>" or
	// "panic:<point>@<n>", a process death at the n-th hit of the injection
	// point, the second delivered by panic, recovered on a rebuilt warehouse
	// from a snapshot and the journal; "transient:<point>@<n>", retried;
	// "persistent:<point>@1", every hit fails and the recovery ladder
	// degrades to recomputation; or "deadline", the window aborts on a
	// nanosecond budget and is run again. n counts from 1 and, at point
	// "step", wraps around the strategy's length.
	Fault string `axis:"fault"`
	// Readers race every window with that many readers of whole epochs, some
	// of their reads through a query server.
	Readers int `axis:"readers"`
	// Replicas is the number of followers replaying the stream over HTTP. Drop
	// makes follower 0 suffer disconnects, Slow makes the last one fetch only
	// every other window (in an ingest trial, never while the stream runs), and
	// Kill crashes follower Kill mod Replicas in the middle of replaying window
	// Kill (from 1; in an ingest trial, the first window it replays once the
	// stream is in), to be rebuilt and caught up from offset 0.
	Replicas int  `axis:"replicas"`
	Drop     bool `axis:"drop"`
	Slow     bool `axis:"slow"`
	Kill     int  `axis:"kill"`
	// Ingest delivers the stream through the continuous ingester and its
	// journal instead of staging it window by window: Windows counts the
	// batches submitted, the ingester cuts its own windows, and Fault names
	// an ingest point ("ingest.accept", "ingest.journal", "ingest.cut",
	// "ingest.stage") or a window point ("step", "recompute") of the first
	// incarnation, restarted until the stream is in. With Replicas the
	// ingester's journal is the leader's shipped log, and a crash kills the
	// leader: the follower holding the most of its log is promoted and
	// ingests the rest.
	Ingest bool `axis:"ingest"`
	// Shuffle stages each window's batch that many more times on a clone of
	// the warehouse before it, each in another arrival order — rows shuffled,
	// counts split into single changes, spread over up to three deltas a
	// view — and holds each run's views and installed-delta digests to the
	// first order's. Trials that stage window by window only.
	Shuffle int `axis:"shuffle"`
}

// String renders the point as the one-line reproducer ParsePoint reads back:
// space-separated axis=value pairs, axes at their default left out.
func (p Point) String() string {
	var out []string
	for i, v := 0, reflect.ValueOf(p); i < v.NumField(); i++ {
		if f := v.Field(i); i == 0 || !f.IsZero() {
			out = append(out, fmt.Sprintf("%s=%v", v.Type().Field(i).Tag.Get("axis"), f))
		}
	}
	return strings.Join(out, " ")
}

// ParsePoint reads a point back from its String.
func ParsePoint(s string) (Point, error) {
	var p Point
	v := reflect.ValueOf(&p).Elem()
	for _, field := range strings.Fields(s) {
		name, value, _ := strings.Cut(field, "=")
		var f reflect.Value
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("axis") == name {
				f = v.Field(i)
			}
		}
		var err error
		switch f.Kind() {
		case reflect.Invalid:
			err = fmt.Errorf("no such axis")
		case reflect.String:
			f.SetString(value)
		case reflect.Bool:
			var b bool
			b, err = strconv.ParseBool(value)
			f.SetBool(b)
		default:
			var n int64
			n, err = strconv.ParseInt(value, 10, 64)
			f.SetInt(n)
		}
		if err != nil {
			return p, fmt.Errorf("check: point %q: %w", field, err)
		}
	}
	_, _, _, err := p.FaultAt()
	return p, err
}

// FaultAt splits Fault into its kind, injection point and hit count; all
// zero for no fault, and a bare kind for "deadline".
func (p Point) FaultAt() (kind, point string, n int, err error) {
	if p.Fault == "" || p.Fault == "deadline" {
		return p.Fault, "", 0, nil
	}
	kind, rest, _ := strings.Cut(p.Fault, ":")
	point, hit, _ := strings.Cut(rest, "@")
	n, err = strconv.Atoi(hit)
	if !slices.Contains([]string{"crash", "panic", "transient", "persistent"}, kind) || err != nil || point == "" || n < 1 {
		return "", "", 0, fmt.Errorf("check: fault %q is not <crash|panic|transient|persistent>:<point>@<n>", p.Fault)
	}
	return kind, point, n, nil
}
