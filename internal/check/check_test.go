package check_test

import (
	"flag"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/check/trial"
)

// -check.point replays one trial: the line every failing assertion prints.
var point = flag.String("check.point", "", "run this one `point` (a check.Point's String) and nothing else")

// draw makes the point of a seed with every axis drawn from it: the sweep
// below crosses axes that the tables kept beside the guarded packages vary
// one family at a time.
func draw(seed int64) check.Point {
	rng := rand.New(rand.NewSource(seed))
	pick := func(of ...string) string { return of[rng.Intn(len(of))] }
	p := check.Point{
		Seed:    seed,
		Catalog: check.Catalog(pick("", "", string(check.Invalidation), string(check.Siblings), string(check.Narrow))),
		Planner: pick("", "prune", "dualstage", "shared"),
		Mode:    warehouse.Mode(pick("", "staged", "dag")),
		Workers: rng.Intn(4), Width: rng.Intn(4), Skip: rng.Intn(2) == 0,
		Share:   rng.Intn(4) > 0,
		Budget:  []int64{0, 1, 1 << 20}[rng.Intn(3)],
		Windows: 1 + rng.Intn(4), Readers: rng.Intn(3),
	}
	switch rng.Intn(3) {
	case 0: // a journaled stream through the ingester, maybe of a leader that fails over
		p.Ingest = true
		p.Fault = pick("", "crash:", "transient:")
		if p.Fault != "" {
			p.Fault += pick("ingest.accept", "ingest.journal", "ingest.cut", "ingest.stage", "step") + "@" + strconv.Itoa(1+rng.Intn(6))
		}
		if rng.Intn(2) == 0 {
			p.Replicas, p.Drop, p.Slow, p.Kill = 1+rng.Intn(3), rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2)
		}
	case 1: // shipped to followers
		p.Replicas, p.Drop, p.Slow, p.Kill = 1+rng.Intn(3), rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(1+p.Windows)
		p.Fault = pick("", "deadline", "transient:step@2", "persistent:step@1")
	default: // one warehouse, and a process that may die
		p.Fault = pick("", "deadline", "transient:step@3", "persistent:step@1", "crash:step@", "panic:step@")
		if strings.HasSuffix(p.Fault, "@") {
			p.Fault += strconv.Itoa(1 + rng.Intn(12))
			p.Cut = rng.Intn(3) * rng.Intn(200)
		}
	}
	return p
}

// TestTrials sweeps the product of the axes: one drawn point a seed.
func TestTrials(t *testing.T) {
	if *point != "" {
		p, err := check.ParsePoint(*point)
		if err != nil {
			t.Fatal(err)
		}
		trial.Run(t, p)
		return
	}
	for seed := range trial.Seeds(120, 25) {
		p := draw(seed)
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			trial.Run(t, p)
		})
	}
}

// TestPointRoundTrip: a point's String is read back as the point, whatever
// axes it sets — the drawn points set every one.
func TestPointRoundTrip(t *testing.T) {
	set := make(map[string]bool)
	for seed := int64(0); seed < 200; seed++ {
		p := draw(seed)
		back, err := check.ParsePoint(p.String())
		if err != nil || back != p {
			t.Fatalf("%+v prints as %q, read back as %+v (%v)", p, p, back, err)
		}
		for _, field := range strings.Fields(p.String()) {
			name, _, _ := strings.Cut(field, "=")
			set[name] = true
		}
	}
	for _, axis := range strings.Fields("seed catalog planner mode workers width skip share budget windows fault cut readers replicas drop slow kill ingest") {
		if !set[axis] {
			t.Errorf("no drawn point set axis %s: its round trip went untested", axis)
		}
	}
	if zero := (check.Point{}).String(); zero != "seed=0" {
		t.Errorf("the default point prints as %q", zero)
	}
	for _, bad := range []string{"sead=1", "seed=x", "fault=crash", "fault=melt:step@1", "fault=crash:step@0"} {
		if p, err := check.ParsePoint(bad); err == nil {
			t.Errorf("%q parsed as %+v", bad, p)
		}
	}
}
