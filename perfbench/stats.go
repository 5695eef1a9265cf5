package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// summary is how every measured metric is recorded: the reported median,
// the quartiles and the sample count, so a later comparison can apply
// the 9-of-10-pairs rule to the per-run values.
type summary struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles use
// the "exclusive" method of Python's statistics.quantiles(n=4), the same
// estimator the spread of a benchmark is judged by.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return summary{}
	case 1:
		return summary{Median: s[0], P25: s[0], P75: s[0], N: 1}
	}
	q := quartiles(s)
	return summary{Median: median(s), P25: q[0], P75: q[2], N: len(s)}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors statistics.quantiles(data, n=4, method="exclusive")
// on an ascending slice of at least two values.
func quartiles(s []float64) [3]float64 {
	var out [3]float64
	n := len(s)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// tailSupported reports whether the p-th percentile (0 < p < 1) of n
// samples has at least ten samples beyond it — the rule for giving a high
// percentile at all.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9
}

// percentile returns the nearest-rank p-th percentile of xs and whether
// the sample count supports it under tailSupported.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], tailSupported(len(s), p)
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkName validates a metric or workload name against the benchmark
// grammar: a letter or digit, then at most 63 of [A-Za-z0-9_.-].
func checkName(name string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("bad name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
	}
	return nil
}

// checkUnit validates a unit such as ms, s, 1/s or count.
func checkUnit(unit string) error {
	if !unitRE.MatchString(unit) {
		return fmt.Errorf("bad unit %q: want [A-Za-z0-9_/%%.-]{1,16}", unit)
	}
	return nil
}
