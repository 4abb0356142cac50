package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Sample is a set of measurements of one quantity. Every summary it
// produces carries the number of values it was computed from, so no
// figure is printed without its sample count.
type Sample struct {
	Values []float64
}

// Add records one measurement.
func (s *Sample) Add(v float64) { s.Values = append(s.Values, v) }

// N is the sample count.
func (s *Sample) N() int { return len(s.Values) }

// Quantile is a summary statistic together with the count it rests on.
type Quantile struct {
	Value float64
	N     int
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive"). An empty sample yields
// NaN with N = 0.
func (s *Sample) Percentile(p float64) Quantile {
	n := len(s.Values)
	if n == 0 {
		return Quantile{Value: math.NaN()}
	}
	v := append([]float64(nil), s.Values...)
	sort.Float64s(v)
	if n == 1 {
		return Quantile{Value: v[0], N: 1}
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return Quantile{Value: v[n-1], N: n}
	}
	frac := pos - float64(lo)
	return Quantile{Value: v[lo] + frac*(v[lo+1]-v[lo]), N: n}
}

// Median is the 50th percentile.
func (s *Sample) Median() Quantile { return s.Percentile(50) }

// Ratio is a share or rate printed with its base: Num of Den.
type Ratio struct {
	Num, Den float64
}

// Value is Num/Den, or NaN when the base is zero.
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return math.NaN()
	}
	return r.Num / r.Den
}

// String renders the ratio with both operands, e.g. "0.750 (75/100)".
func (r Ratio) String() string {
	return fmt.Sprintf("%.3f (%s/%s)", r.Value(), trimFloat(r.Num), trimFloat(r.Den))
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// maxRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status, in MiB.
func maxRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
