package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample. Interpolating
// keeps the reported value continuous in the sample, so a tail percentile of
// a few hundred timings does not jump between two neighbouring order
// statistics from run to run.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder are the tail percentiles a timing may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// supportedTail picks the highest percentile of the ladder that still has at
// least ten of the n samples beyond it — the tail a sample of that size can
// state without reporting its two or three slowest observations as a
// percentile.
func supportedTail(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		// In whole tenths of a percent, so that 100 samples beyond p90 count
		// as exactly ten and not as 9.999….
		if beyond := int(math.Round((100 - p) * 10)); n*beyond >= 10*1000 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method): the driver
// computes spreads with it, so -compare uses the same definition.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rSquared is the coefficient of determination of the least-squares line of
// y on x; 0 when either series is constant.
func rSquared(x, y []float64) float64 {
	n := float64(len(x))
	if len(x) < 2 || len(x) != len(y) {
		return 0
	}
	mx, my := sum(x)/n, sum(y)/n
	var sxy, sxx, syy float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
		syy += (y[i] - my) * (y[i] - my)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy * sxy / (sxx * syy)
}
