package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported as supported: a p99 needs at least 1000 samples, a p95 200.
const minBeyond = 10

// supported reports whether n samples support percentile p (0 < p < 100).
func supported(n int, p float64) bool {
	return float64(n)*(1-p/100) >= minBeyond
}

// percentile returns the nearest-rank p-th percentile of xs (sorted or
// not). Infinite samples (failed requests) sort last. It returns NaN for
// an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle value of xs, averaging the middle pair for an
// even count. NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the spread of repeated runs is judged by. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// arrival is one open-loop request: when it was due, when the generator
// actually sent it, and when its response arrived. A request that failed
// has ok false; one the generator shed because too many were already in
// flight was never sent and has shed true. Both miss any latency limit.
type arrival struct {
	due, sent, done time.Time
	ok, shed        bool
}

// phase summarizes the arrivals of one offered rate.
type phase struct {
	Rate float64 `json:"rate_per_s"`
	// Sent counts the requests due in the phase, shed ones included.
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Shed      int `json:"shed"`
	// Completed is successful responses per second over the phase: from its
	// first due time to its last response.
	Completed float64 `json:"completed_per_s"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	// P99Supported is false when fewer than 1000 requests were sent.
	P99Supported bool    `json:"p99_supported"`
	LateP99MS    float64 `json:"late_p99_ms"`
	// BacklogStart and BacklogEnd are the requests due but not yet answered
	// a quarter of the way through the phase and at its last due time.
	BacklogStart int  `json:"backlog_start"`
	BacklogEnd   int  `json:"backlog_end"`
	BacklogGrew  bool `json:"backlog_grew"`
	MeetsLimit   bool `json:"meets_limit"`
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// account summarizes one open-loop phase. Latency is timed from each
// request's due time, not from when it was sent, so a stalled generator
// or a queue charges every request that waited behind it; a failed or
// shed request's latency is +Inf. Lateness is sent minus due. The backlog
// grows when the requests outstanding at the phase's last due time exceed
// those outstanding a quarter of the way in by more than can be answered
// within the limit at the offered rate. The phase meets the limit when its
// p99 is supported and within limitMS, nothing failed or was shed, and
// the backlog did not grow.
func account(rate float64, arr []arrival, limitMS float64) phase {
	ph := phase{Rate: rate, Sent: len(arr)}
	if len(arr) == 0 {
		return ph
	}
	lat := make([]float64, len(arr))
	late := make([]float64, len(arr))
	first, last := arr[0].due, arr[0].done
	for i, a := range arr {
		late[i] = ms(a.sent.Sub(a.due))
		if !a.ok {
			if a.shed {
				ph.Shed++
			} else {
				ph.Failed++
			}
			lat[i] = math.Inf(1)
			continue
		}
		ph.Succeeded++
		lat[i] = ms(a.done.Sub(a.due))
		if a.due.Before(first) {
			first = a.due
		}
		if a.done.After(last) {
			last = a.done
		}
	}
	if span := last.Sub(first).Seconds(); ph.Succeeded > 0 && span > 0 {
		ph.Completed = float64(ph.Succeeded) / span
	}
	ph.P50MS = percentile(lat, 50)
	ph.P99MS = percentile(lat, 99)
	ph.P99Supported = supported(len(lat), 99)
	ph.LateP99MS = percentile(late, 99)

	lastDue := arr[0].due
	for _, a := range arr {
		if a.due.After(lastDue) {
			lastDue = a.due
		}
	}
	quarter := first.Add(lastDue.Sub(first) / 4)
	ph.BacklogStart = backlog(arr, quarter)
	ph.BacklogEnd = backlog(arr, lastDue)
	slack := int(math.Ceil(rate * limitMS / 1000))
	if slack < 1 {
		slack = 1
	}
	ph.BacklogGrew = ph.BacklogEnd > ph.BacklogStart+slack
	ph.MeetsLimit = ph.Failed == 0 && ph.Shed == 0 && ph.P99Supported && ph.P99MS <= limitMS && !ph.BacklogGrew
	return ph
}

// backlog counts the requests due by t that had not been answered by t.
// A failed request counts as answered when its failure arrived.
func backlog(arr []arrival, t time.Time) int {
	n := 0
	for _, a := range arr {
		if !a.due.After(t) && a.done.After(t) {
			n++
		}
	}
	return n
}
