package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the p-quantile (0 <= p <= 1) of an ascending sample,
// interpolating linearly between the closest ranks. An empty sample
// yields 0.
func quantile(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return asc[n-1]
	}
	return asc[lo] + (h-float64(lo))*(asc[lo+1]-asc[lo])
}

// median is the 0.5-quantile of xs in any order.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// mean is the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// dist summarizes a timing sample: the median, the tail percentiles and
// how many samples lie strictly beyond each, so a reader can see whether
// a percentile rests on enough of the tail to mean anything.
type dist struct {
	N                  int
	P50, P95, P99      float64
	Beyond95, Beyond99 int
}

func summarize(xs []float64) dist {
	s := sorted(xs)
	d := dist{N: len(s), P50: quantile(s, 0.5), P95: quantile(s, 0.95), P99: quantile(s, 0.99)}
	for _, x := range s {
		if x > d.P95 {
			d.Beyond95++
		}
		if x > d.P99 {
			d.Beyond99++
		}
	}
	return d
}

func (d dist) String() string {
	return fmt.Sprintf("n=%d p50=%.4g p95=%.4g (%d beyond) p99=%.4g (%d beyond)",
		d.N, d.P50, d.P95, d.Beyond95, d.P99, d.Beyond99)
}

// quartiles returns the three cut points of xs into four groups, by the
// same "exclusive" method as Python's statistics.quantiles(xs, n=4), so
// spreads computed here and by that function agree. It needs at least
// two values.
func quartiles(xs []float64) (q [3]float64, err error) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return q, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q, nil
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise a bound must exceed.
func spread(xs []float64) (float64, error) {
	q, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(xs)
	if med == 0 {
		return 0, fmt.Errorf("spread of a sample with median 0 is undefined")
	}
	return (q[2] - q[0]) / math.Abs(med), nil
}

// ratio is a share together with its base, so it is never reported
// without the count it was taken over.
type ratio struct{ num, den float64 }

// value is num/den, or 0 over an empty base.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4g (%g of %g)", r.value(), r.num, r.den)
}

// worse reports whether cur is worse than base by more than bound, a
// share of base, for a metric where better is "lower" or "higher".
func worse(base, cur float64, better string, bound float64) (bool, error) {
	switch better {
	case "lower":
		return cur > base*(1+bound), nil
	case "higher":
		return cur < base*(1-bound), nil
	}
	return false, fmt.Errorf("better must be lower or higher, got %q", better)
}
