package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: fewer, and the percentile is one or two outliers.
const minBeyond = 10

// tailPermille are the candidate tail percentiles in per-mille, highest
// first (99.9, 99, 90).
var tailPermille = []int{999, 990, 900}

// rankOf returns the 1-based nearest rank of the per-mille percentile pm
// in a sample of n: the smallest rank with at least pm/1000 of the sample
// at or below it.
func rankOf(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest candidate percentile (in per-mille)
// that leaves at least minBeyond samples above it in a sample of n, and
// false when not even the 90th does.
func tailPercentile(n int) (int, bool) {
	for _, pm := range tailPermille {
		if n-rankOf(n, pm) >= minBeyond {
			return pm, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile pm (per-mille) of an
// ascending sample; 0 for an empty one.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), pm)-1]
}

// summary is a latency sample reduced by the percentile rule: the median,
// and the highest percentile with minBeyond samples above it. When the
// sample supports no tail percentile (a closed loop of a few long
// batches), Tail is the slowest sample and TailPermille is 1000.
type summary struct {
	N            int
	P50          float64
	TailPermille int
	Tail         float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 500)}
	if pm, ok := tailPercentile(len(s)); ok {
		out.TailPermille, out.Tail = pm, percentile(s, pm)
	} else if len(s) > 0 {
		out.TailPermille, out.Tail = 1000, s[len(s)-1]
	}
	return out
}

// median of a sample (nearest rank, like every percentile here).
func median(xs []float64) float64 { return summarize(xs).P50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// backlogGrowing reports whether the queue of due-but-unfinished requests
// grew over a phase of the given length. due and done are offsets from the
// phase start (done of a request that never finished is +Inf). The backlog
// is sampled at each quarter of the phase; it is growing when the last
// sample exceeds the first by more than slack (the requests that may
// legitimately be in flight) and the samples never fall after the
// midpoint — a queue that drains again is a burst, not a trend.
func backlogGrowing(due, done []time.Duration, phase time.Duration, slack int) bool {
	at := func(t time.Duration) int {
		b := 0
		for i := range due {
			if due[i] <= t {
				b++
			}
			if done[i] <= t {
				b--
			}
		}
		return b
	}
	var b [4]int
	for q := range b {
		b[q] = at(phase * time.Duration(q+1) / 4)
	}
	return b[3] > b[0]+slack && b[3] >= b[2] && b[2] >= b[1]
}

// never is the done offset of a request that never finished.
const never = time.Duration(math.MaxInt64)

// ladderStep is one rate of a goodput ladder, as measured.
type ladderStep struct {
	Rate      float64 // requests per second offered
	Attempted int
	Failed    int
	// Limit is the latency (ms) at the limit's percentile, failed requests
	// counted as infinitely slow.
	Limit   float64
	Growing bool
}

// meets reports whether the step kept its latency limit without a growing
// backlog.
func (s ladderStep) meets(limitMs float64) bool {
	return s.Attempted > 0 && s.Limit <= limitMs && !s.Growing
}

// limitLatency is the latency at percentile pm of a phase, where each
// failed request counts as missing any limit.
func limitLatency(lat []float64, failed, pm int) float64 {
	s := append([]float64(nil), lat...)
	for i := 0; i < failed; i++ {
		s = append(s, math.Inf(1))
	}
	sort.Float64s(s)
	return percentile(s, pm)
}

// goodput is the highest rate of an ascending ladder, walked from the
// bottom, whose step and every step below it met the limit; 0 when the
// first step already missed.
func goodput(steps []ladderStep, limitMs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.meets(limitMs) {
			break
		}
		best = s.Rate
	}
	return best
}
