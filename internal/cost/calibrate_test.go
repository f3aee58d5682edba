package cost

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestCalibratorUncalibrated checks the pre-observation fallback: no batch
// target.
func TestCalibratorUncalibrated(t *testing.T) {
	var c Calibrator
	if n := c.Stats().Windows; n != 0 {
		t.Fatalf("fresh calibrator reports %d windows", n)
	}
	if got := c.BatchFor(time.Second); got != 0 {
		t.Fatalf("uncalibrated BatchFor = %d, want 0", got)
	}
}

// TestCalibratorConverges feeds a steady workload — actual work is 2×
// predicted, 100ns per work unit, 10 work per change — and checks the EWMAs
// converge so predictions match the ground truth.
func TestCalibratorConverges(t *testing.T) {
	var c Calibrator
	for i := 0; i < 50; i++ {
		// 100 changes, predicted 1000 work, actual 2000 work, 200µs wall.
		c.Observe(1000, 2000, 200*time.Microsecond, 100)
	}
	st := c.Stats()
	if math.Abs(st.WorkRatio-2.0) > 1e-9 {
		t.Fatalf("WorkRatio = %v, want 2.0", st.WorkRatio)
	}
	if math.Abs(st.NSPerWork-100) > 1e-9 {
		t.Fatalf("NSPerWork = %v, want 100", st.NSPerWork)
	}
	if math.Abs(st.WorkPerChange-10) > 1e-9 {
		t.Fatalf("WorkPerChange = %v, want 10", st.WorkPerChange)
	}
	// Budget 200µs at 2µs per change → 100 changes.
	if got := c.BatchFor(200 * time.Microsecond); got != 100 {
		t.Fatalf("BatchFor(200µs) = %d, want 100", got)
	}
}

// TestCalibratorTracksDrift checks the EWMA follows a workload change: after
// the machine slows 10×, the batch target shrinks toward a tenth.
func TestCalibratorTracksDrift(t *testing.T) {
	var c Calibrator
	for i := 0; i < 30; i++ {
		c.Observe(1000, 1000, 100*time.Microsecond, 100) // 1ns/work
	}
	fast := c.BatchFor(time.Millisecond)
	for i := 0; i < 30; i++ {
		c.Observe(1000, 1000, time.Millisecond, 100) // 10ns/work
	}
	slow := c.BatchFor(time.Millisecond)
	if slow >= fast {
		t.Fatalf("batch target did not shrink after slowdown: fast=%d slow=%d", fast, slow)
	}
	if ratio := float64(fast) / float64(slow); ratio < 5 || ratio > 15 {
		t.Fatalf("batch shrink ratio = %v, want ~10", ratio)
	}
}

// TestCalibratorIgnoresDegenerate checks non-positive observations are
// dropped rather than corrupting the EWMAs.
func TestCalibratorIgnoresDegenerate(t *testing.T) {
	var c Calibrator
	c.Observe(0, 100, time.Millisecond, 10)
	c.Observe(100, 0, time.Millisecond, 10)
	c.Observe(100, 100, 0, 10)
	c.Observe(100, 100, time.Millisecond, 0)
	if n := c.Stats().Windows; n != 0 {
		t.Fatalf("%d degenerate observations were folded in", n)
	}
	if got := c.BatchFor(time.Second); got != 0 {
		t.Fatalf("BatchFor after degenerate observations = %d, want 0", got)
	}
}

// TestCalibratorBatchFloor checks a tiny budget still yields a batch of one:
// the ingester must make progress even when the SLO is unachievable.
func TestCalibratorBatchFloor(t *testing.T) {
	var c Calibrator
	c.Observe(1000, 1000, time.Second, 10) // very slow: 100ms per change
	if got := c.BatchFor(time.Nanosecond); got != 1 {
		t.Fatalf("BatchFor(1ns) = %d, want floor of 1", got)
	}
}

// TestCalibratorConcurrent exercises Observe/BatchFor/Stats under the race
// detector.
func TestCalibratorConcurrent(t *testing.T) {
	var c Calibrator
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Observe(1000, 1500, 150*time.Microsecond, 50)
				_ = c.BatchFor(time.Millisecond)
				_ = c.Stats()
			}
		}()
	}
	wg.Wait()
	if n := c.Stats().Windows; n != 800 {
		t.Fatalf("%d observations landed, want 800", n)
	}
}
