// Package stats provides the small statistical toolkit the experiment
// harnesses use: summary statistics, histograms and empirical CDFs matching
// the presentation style of the paper's Table 2 and Figure 9.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Summary holds the three statistics the paper reports per scenario.
type Summary struct {
	N      int
	Median float64
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes summary statistics over xs. It returns a zero Summary
// for an empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted and is
// not modified. The order statistics are those sort.Float64s would put
// in place — NaN orders first — but found by selection on a copy, in
// linear expected time, rather than by sorting it.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return extreme(xs, orderLess)
	}
	if q >= 1 {
		return extreme(xs, func(a, b float64) bool { return orderLess(b, a) })
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	buf := append([]float64(nil), xs...)
	selectNth(buf, lo)
	if lo == hi {
		return buf[lo]
	}
	// Everything after lo orders at or above buf[lo]; the least of it is
	// the next order statistic.
	next := extreme(buf[lo+1:], orderLess)
	frac := pos - float64(lo)
	return buf[lo]*(1-frac) + next*frac
}

// orderLess is sort.Float64s's order: numeric, with NaN before all else.
func orderLess(a, b float64) bool { return a < b || (a != a && b == b) }

// extreme returns the first element of xs that no other precedes under
// before: the minimum for orderLess.
func extreme(xs []float64, before func(a, b float64) bool) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if before(x, m) {
			m = x
		}
	}
	return m
}

// selectNth reorders xs so that xs[n] is the value sorting would put
// there, nothing before n orders after it and nothing after n orders
// before it. It is quickselect with a median-of-three pivot and a
// three-way partition (so runs of equal values end it early); a range
// that is still large after 2·log2(len) rounds is sorted instead, which
// bounds the worst case at O(n log n).
func selectNth(xs []float64, n int) {
	lo, hi := 0, len(xs)-1
	budget := 2 * bits.Len(uint(len(xs)))
	for hi > lo {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		budget--
		p := medianOf3(xs[lo], xs[lo+(hi-lo)/2], xs[hi])
		// Partition into [lo,lt) before p, [lt,gt] equal to p, (gt,hi] after p.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch x := xs[i]; {
			case orderLess(x, p):
				xs[lt], xs[i] = xs[i], xs[lt]
				lt++
				i++
			case orderLess(p, x):
				xs[gt], xs[i] = xs[i], xs[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case n < lt:
			hi = lt - 1
		case n > gt:
			lo = gt + 1
		default:
			return
		}
	}
}

func medianOf3(a, b, c float64) float64 {
	if orderLess(b, a) {
		a, b = b, a
	}
	if orderLess(c, b) {
		b = c
		if orderLess(b, a) {
			b = a
		}
	}
	return b
}

// Histogram is a fixed-width binned histogram over [Lo, Hi). Samples outside
// the range are clamped into the first or last bin so mass is never lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: non-positive bin count")
	}
	if hi <= lo {
		panic("stats: empty histogram range")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total reports the number of recorded samples.
func (h *Histogram) Total() int { return h.total }

// BinCenter reports the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Fraction reports the fraction of samples in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Render draws a textual histogram with the given bar width, in the style
// used by the figure-reproduction harnesses.
func (h *Histogram) Render(width int) string {
	var b strings.Builder
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.Counts {
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%8.3f | %-*s %6.2f%%\n",
			h.BinCenter(i), width, strings.Repeat("#", bar), 100*h.Fraction(i))
	}
	return b.String()
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	xs []float64 // sorted
}

// NewCDF builds the empirical CDF of xs.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{xs: sorted}
}

// At reports P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.xs, x)
	// Move past equal values so At is right-continuous.
	for i < len(c.xs) && c.xs[i] == x {
		i++
	}
	return float64(i) / float64(len(c.xs))
}

// Points returns n evenly spaced (x, P(X≤x)) pairs spanning the sample range,
// suitable for plotting the CDF curves of Figure 9.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.xs) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.xs[0], c.xs[len(c.xs)-1]
	pts := make([][2]float64, n)
	for i := range pts {
		x := lo
		if n > 1 {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		pts[i] = [2]float64{x, c.At(x)}
	}
	return pts
}

// RelativeError reports |got-want| / |want|; it returns |got| when want == 0.
func RelativeError(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
