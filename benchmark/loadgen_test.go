package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeEndpoint answers every query at once with a well-formed response,
// except that request number stallAt sleeps for stall first.
func fakeEndpoint(t *testing.T, stallAt int64, stall time.Duration) (*client, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", acceptGeoJSON)
		w.Header().Set("X-Cache", "MISS")
		w.Write([]byte(`{"type":"FeatureCollection","features":[]}`))
	}))
	t.Cleanup(srv.Close)
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), loadToken)
	t.Cleanup(c.close)
	return c, &served
}

func fixedSchedule(n int, rate float64) *schedule {
	s := &schedule{ops: make([]query, n), due: make([]time.Duration, n)}
	for i := range s.ops {
		s.ops[i] = windowQuery(windowAt(float64(i), 0, windowSize))
		s.due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return s
}

// One 200 ms stall at 500 requests/s on one connection delays a hundred
// requests that were due while it lasted. Timed from their due instants
// they fill the top fifth of the distribution; timed from their sends
// only the stalled request itself is slow and p99 never sees it.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	c, _ := fakeEndpoint(t, 100, stall)
	res := c.run(phase{readers: 1, sched: fixedSchedule(500, 500)}, "MISS")
	if res.failed != 0 || len(res.samples) != 500 {
		t.Fatalf("failed=%d samples=%d errs=%v", res.failed, len(res.samples), res.errs)
	}
	fromDue := sortedDurations(res.samples, func(s sample) (time.Duration, bool) { return s.latency, true })
	fromSend := sortedDurations(res.samples, func(s sample) (time.Duration, bool) { return s.latency - s.late, true })
	late := sortedDurations(res.samples, func(s sample) (time.Duration, bool) { return s.late, true })
	if p99 := percentile(fromDue, 0.99); p99 < stall*3/4 {
		t.Errorf("p99 from due time = %v, want at least %v: the stall was not charged to the requests behind it", p99, stall*3/4)
	}
	if p99 := percentile(fromSend, 0.99); p99 > stall/4 {
		t.Errorf("p99 from send time = %v: the test rate does not separate the two ways of timing", p99)
	}
	if p99 := percentile(late, 0.99); p99 < stall/2 {
		t.Errorf("lateness p99 = %v, want at least %v: the generator did not report how late it ran", p99, stall/2)
	}
}

func TestAtMostTwoConnections(t *testing.T) {
	c, served := fakeEndpoint(t, -1, 0)
	closed := c.run(phase{readers: maxConns, dur: 200 * time.Millisecond,
		next: func(i int) query { return windowQuery(windowAt(float64(i), 0, windowSize)) }}, "MISS")
	open := c.run(phase{readers: maxConns, sched: fixedSchedule(400, 2000)}, "MISS")
	if closed.failed+open.failed != 0 {
		t.Fatalf("failures: %v %v", closed.errs, open.errs)
	}
	if int(served.Load()) != len(closed.samples)+len(open.samples) {
		t.Errorf("server saw %d requests, generator recorded %d", served.Load(), len(closed.samples)+len(open.samples))
	}
	if peak, dials := c.peakOpen.Load(), c.dials.Load(); peak > maxConns || dials > maxConns {
		t.Errorf("peak open connections %d, dialled %d; want at most %d of each", peak, dials, maxConns)
	}
}

// A response of the wrong X-Cache class is a failed request: it means the
// workload is not exercising what it is defined to exercise.
func TestWrongCacheClassFails(t *testing.T) {
	c, _ := fakeEndpoint(t, -1, 0)
	res := c.run(phase{readers: 1, sched: fixedSchedule(10, 1000)}, "HIT")
	if res.failed != 10 {
		t.Fatalf("failed = %d, want 10", res.failed)
	}
	if lat := res.samples[0].latency; lat != failedLatency {
		t.Errorf("failed request's latency = %v, want %v (misses every limit)", lat, failedLatency)
	}
}

// A burst in a few windows moves neither percentile; a stall in every
// window moves p99.
func TestWindowedPercentiles(t *testing.T) {
	traffic := func(stalled func(window int) bool) []sample {
		var samples []sample
		for i := 0; i < 2800; i++ { // 28 windows of 100 samples over 7 s
			s := sample{due: time.Duration(i) * 2500 * time.Microsecond, latency: time.Millisecond}
			if stalled(i/100) && i%100 < 5 {
				s.latency = time.Second
			}
			samples = append(samples, s)
		}
		return samples
	}
	p50, p99 := windowedPercentiles(traffic(func(w int) bool { return w%5 == 0 }), 7*time.Second, 28)
	if p50 != time.Millisecond || p99 != time.Millisecond {
		t.Errorf("bursts in 6 of 28 windows: p50=%v p99=%v, want 1ms each", p50, p99)
	}
	p50, p99 = windowedPercentiles(traffic(func(int) bool { return true }), 7*time.Second, 28)
	if p50 != time.Millisecond || p99 != time.Second {
		t.Errorf("a stall in every window: p50=%v p99=%v, want 1ms and 1s", p50, p99)
	}
}
