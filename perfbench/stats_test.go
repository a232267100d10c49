package main

import (
	"math"
	"testing"
	"time"
)

func TestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 99, false}, {1000, 99, true}, {199, 95, false}, {200, 95, true},
		{19, 50, false}, {20, 50, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile([]float64{3, math.Inf(1), 1}, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if xs[0] != 1000 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same samples.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 1, 1.5, 2},
		{[]float64{2, 4, 4, 5, 7, 9, 10, 12, 15, 20}, 4, 8, 12.75},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// schedule builds n arrivals due every period from t0, each sent after
// lateness and answered service after its send.
func schedule(t0 time.Time, n int, period, lateness, service time.Duration) []arrival {
	arr := make([]arrival, n)
	for i := range arr {
		due := t0.Add(time.Duration(i) * period)
		sent := due.Add(lateness)
		arr[i] = arrival{due: due, sent: sent, done: sent.Add(service), ok: true}
	}
	return arr
}

func TestAccountTimesFromDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// 1000 rps for 2 s; the generator runs 3 ms late and service is 1 ms,
	// so every request takes 4 ms from its due time.
	arr := schedule(t0, 2000, time.Millisecond, 3*time.Millisecond, time.Millisecond)
	ph := account(1000, arr, 5)
	if ph.P50MS != 4 || ph.P99MS != 4 {
		t.Errorf("latency p50/p99 = %v/%v ms, want 4/4 (timed from due)", ph.P50MS, ph.P99MS)
	}
	if ph.LateP99MS != 3 {
		t.Errorf("late p99 = %v ms, want 3", ph.LateP99MS)
	}
	if !ph.P99Supported || !ph.MeetsLimit || ph.BacklogGrew {
		t.Errorf("steady phase judged %+v", ph)
	}
	if ph.Sent != 2000 || ph.Succeeded != 2000 || ph.Failed != 0 {
		t.Errorf("counts %d/%d/%d", ph.Sent, ph.Succeeded, ph.Failed)
	}
	if math.Abs(ph.Completed-1000) > 5 {
		t.Errorf("completed %v/s, want ~1000", ph.Completed)
	}
	if account(1000, arr, 3.5).MeetsLimit {
		t.Error("4 ms p99 met a 3.5 ms limit")
	}
}

func TestAccountFailureMissesLimit(t *testing.T) {
	t0 := time.Unix(1000, 0)
	arr := schedule(t0, 2000, time.Millisecond, 0, time.Millisecond)
	arr[7].ok = false
	ph := account(1000, arr, 5)
	if ph.Failed != 1 || ph.Succeeded != 1999 || ph.MeetsLimit {
		t.Errorf("a failure must count and miss the limit: %+v", ph)
	}
	// Twenty-one failures put +Inf at the p99 rank.
	for i := 0; i < 20; i++ {
		arr[100+i].ok = false
	}
	if ph := account(1000, arr, 5); !math.IsInf(ph.P99MS, 1) {
		t.Errorf("p99 with 21 failures in 2000 = %v, want +Inf", ph.P99MS)
	}
}

func TestAccountGrowingBacklog(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// Offered 1000 rps, served one every 2 ms: the queue grows linearly.
	arr := make([]arrival, 2000)
	for i := range arr {
		due := t0.Add(time.Duration(i) * time.Millisecond)
		done := t0.Add(time.Duration(2*i+2) * time.Millisecond)
		arr[i] = arrival{due: due, sent: due, done: done, ok: true}
	}
	ph := account(1000, arr, 500)
	if !ph.BacklogGrew || ph.MeetsLimit {
		t.Errorf("linear queue growth not detected: %+v", ph)
	}
	if ph.BacklogEnd <= ph.BacklogStart {
		t.Errorf("backlog %d -> %d", ph.BacklogStart, ph.BacklogEnd)
	}
}

func TestBacklog(t *testing.T) {
	t0 := time.Unix(1000, 0)
	arr := []arrival{
		{due: t0, done: t0.Add(time.Second), ok: true},
		{due: t0.Add(time.Millisecond), done: t0.Add(2 * time.Millisecond), ok: true},
		{due: t0.Add(time.Hour), done: t0.Add(2 * time.Hour), ok: true},
	}
	if got := backlog(arr, t0.Add(5*time.Millisecond)); got != 1 {
		t.Errorf("backlog = %d, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Layer: "bench", StartUS: 0, EndUS: 10000},
		{ID: 2, Parent: 1, Req: 1, Layer: "wire", StartUS: 1000, EndUS: 8000},
		{ID: 3, Parent: 2, Req: 1, Layer: "serve", StartUS: 2000, EndUS: 5000},
		{ID: 4, Parent: 2, Req: 1, Layer: "serve", StartUS: 4000, EndUS: 6000},
		{ID: 5, Parent: 1, Req: 1, Layer: "bench", StartUS: 8000, EndUS: 9000},
	}
	got := selfTime(spans)
	want := map[string]float64{"bench": 10 - 7 - 1 + 1, "wire": 7 - 4, "serve": 3 + 2}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("self[%s] = %v ms, want %v", k, got[k], v)
		}
	}
}

func TestAccountShedMissesLimit(t *testing.T) {
	t0 := time.Unix(1000, 0)
	arr := schedule(t0, 2000, time.Millisecond, 0, time.Millisecond)
	arr[9].ok, arr[9].shed = false, true
	arr[9].done = arr[9].sent
	ph := account(1000, arr, 5)
	if ph.Shed != 1 || ph.Failed != 0 || ph.MeetsLimit {
		t.Errorf("a shed request must count and miss the limit: %+v", ph)
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v", got)
	}
}
