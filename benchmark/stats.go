package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted values by linear interpolation
// between order statistics; NaN for no values.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is a metric's value with its dispersion: the median of n
// per-window (or per-repetition) values and their quartiles.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reduces per-window values to their median and quartiles.
func summarize(unit string, values []float64) summary {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return summary{Value: quantile(s, 0.5), Unit: unit, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// single wraps a metric measured once per run.
func single(unit string, v float64) summary {
	return summary{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// sample is one completed operation as the client saw it. Times are
// nanoseconds since the run's origin; first is when the first row arrived
// (the acknowledgement, for writes).
type sample struct {
	start, first, end int64
	stmt              int32
	failed            bool
	key               int64
	hash              uint64
}

// windowStats are the timing metrics of the samples that ended in one window.
type windowStats struct {
	n                  int
	opsPerSec          float64
	p50, p95, firstP50 float64 // milliseconds
}

// windows cuts [0, count*width) into count windows and computes each
// window's statistics over the samples keep accepts. A sample belongs to the
// window it ended in; samples that started before 0 (warm-up) or ended after
// the last window are left out.
func windows(samples []sample, width int64, count int, keep func(*sample) bool) []windowStats {
	lat := make([][]float64, count)
	first := make([][]float64, count)
	for i := range samples {
		s := &samples[i]
		if s.start < 0 || !keep(s) {
			continue
		}
		w := int(s.end / width)
		if w >= count {
			continue
		}
		lat[w] = append(lat[w], float64(s.end-s.start)/1e6)
		first[w] = append(first[w], float64(s.first-s.start)/1e6)
	}
	out := make([]windowStats, count)
	for w := range out {
		sort.Float64s(lat[w])
		sort.Float64s(first[w])
		out[w] = windowStats{
			n:         len(lat[w]),
			opsPerSec: float64(len(lat[w])) / (float64(width) / 1e9),
			p50:       quantile(lat[w], 0.5),
			p95:       quantile(lat[w], 0.95),
			firstP50:  quantile(first[w], 0.5),
		}
	}
	return out
}

// column extracts one field of every window.
func column(ws []windowStats, f func(windowStats) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

// span is one timed interval recorded by the harness at a layer boundary.
// Spans of one request share Req; Parent is the ID of the span that caused
// this one, -1 for a request's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval its children cover. Children may
// overlap each other or stick out of the parent; the covered part is the
// union of the children clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered measures the union of the intervals, clipped to [lo, hi].
func covered(lo, hi int64, intervals []span) int64 {
	if len(intervals) == 0 {
		return 0
	}
	iv := append([]span(nil), intervals...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	reach := lo
	for _, c := range iv {
		a, b := max(c.Start, reach), min(c.End, hi)
		if b > a {
			total += b - a
			reach = b
		}
	}
	return total
}
