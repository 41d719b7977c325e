package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// rankIndex is the nearest-rank index of quantile q (0 < q <= 1) in a
// sorted sample of n values: the smallest index whose cumulative share
// reaches q.
func rankIndex(n int, q float64) int {
	if n <= 0 {
		return -1
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// quantile returns the nearest-rank q-quantile of an ascending sample and
// the number of samples strictly beyond it (the tail that supports it).
// An empty sample gives (0, 0).
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	i := rankIndex(len(sorted), q)
	if i < 0 {
		return 0, 0
	}
	return sorted[i], len(sorted) - 1 - i
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

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

// interval is a closed span of time [lo, hi] in seconds.
type interval struct{ lo, hi float64 }

// selfTime is the parent's duration minus the part of it that the union of
// its children covers; overlapping children count once and the parts of a
// child outside the parent count not at all.
func selfTime(parent interval, children []interval) float64 {
	d := parent.hi - parent.lo
	if d <= 0 {
		return 0
	}
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := math.Max(c.lo, parent.lo), math.Min(c.hi, parent.hi)
		if hi > lo {
			cs = append(cs, interval{lo, hi})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
	covered, end := 0.0, math.Inf(-1)
	for _, c := range cs {
		if c.lo > end {
			covered += c.hi - c.lo
			end = c.hi
		} else if c.hi > end {
			covered += c.hi - end
			end = c.hi
		}
	}
	return d - covered
}

// budgetRow is one attributed component of a request's latency.
type budgetRow struct {
	name string
	us   float64
}

// latencyBudget splits the median latency p50 (µs) of the samples into the
// quietHalf returns the indices of the ceil(n/2) windows with the least
// hypervisor steal, in time order among equal steal.
func quietHalf(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	return idx[:(len(idx)+1)/2]
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, 0, len(idx))
	for _, i := range idx {
		out = append(out, xs[i])
	}
	return out
}

// mean of each component over the requests whose latency lies within the
// band of quantiles [0.5-band, 0.5+band], and an unattributed remainder
// that makes the rows sum to p50 exactly. parts[i][k] is request i's
// component k (µs), lat[i] its latency.
func latencyBudget(names []string, parts [][]float64, lat []float64, band float64) (p50 float64, rows []budgetRow, unattributed float64) {
	if len(lat) == 0 {
		return 0, nil, 0
	}
	sorted := sortedCopy(lat)
	p50, _ = quantile(sorted, 0.5)
	lo, _ := quantile(sorted, 0.5-band)
	hi, _ := quantile(sorted, 0.5+band)
	sums := make([]float64, len(names))
	n := 0
	for i, l := range lat {
		if l < lo || l > hi {
			continue
		}
		for k := range names {
			sums[k] += parts[i][k]
		}
		n++
	}
	unattributed = p50
	for k, name := range names {
		v := 0.0
		if n > 0 {
			v = sums[k] / float64(n)
		}
		rows = append(rows, budgetRow{name, v})
		unattributed -= v
	}
	return p50, rows, unattributed
}

// parsePrometheus reads the text exposition format (0.0.4) and returns the
// sum of every sample of each metric name across its label sets. Comment
// lines, blank lines and histogram bucket series are read like any other
// series; callers ask only for the counters they need.
func parsePrometheus(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if strings.HasPrefix(rest, "{") {
			j := strings.LastIndexByte(rest, '}')
			if j < 0 {
				return nil, errBadExposition(line)
			}
			rest = rest[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, errBadExposition(line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, errBadExposition(line)
		}
		out[name] += v
	}
	return out, sc.Err()
}

type errBadExposition string

func (e errBadExposition) Error() string {
	return "perfbench: bad exposition line " + strconv.Quote(string(e))
}
