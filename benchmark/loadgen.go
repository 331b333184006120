package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxConns bounds the connections the generator ever holds open: one
// process drives the server with at most nproc (2 on the reference
// container) connections, so the generator cannot starve the server of
// the cores both share.
const maxConns = 2

// failedLatency stands in for +∞: a failed or refused request misses
// every latency limit, so it sorts above any real sample.
const failedLatency = time.Hour

// client is the benchmark's only HTTP path to the server under test.
type client struct {
	base  string
	token string
	hc    *http.Client

	dials    atomic.Int64 // connections ever opened
	open     atomic.Int64
	peakOpen atomic.Int64
}

type countedConn struct {
	net.Conn
	c    *client
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

func newClient(addr, token string) *client {
	c := &client{base: "http://" + addr, token: token}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.hc = &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, address)
				if err != nil {
					return nil, err
				}
				c.dials.Add(1)
				n := c.open.Add(1)
				for {
					peak := c.peakOpen.Load()
					if n <= peak || c.peakOpen.CompareAndSwap(peak, n) {
						break
					}
				}
				return &countedConn{Conn: conn, c: c}, nil
			},
		},
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get fetches a small control document (/healthz, /metrics).
func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// query sends q and copies the response body to dst, returning its size.
// It checks what can be checked without the oracle: status, content
// type, the X-Cache class the workload is defined to produce (skipped
// when wantCache is empty) and a non-empty body.
func (c *client) query(q *query, wantCache string, dst io.Writer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/sparql", strings.NewReader(q.text))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	req.Header.Set("Accept", q.accept)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(dst, resp.Body)
	if err != nil {
		return int(n), err
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		return int(n), fmt.Errorf("%s query: status %d", classNames[q.class], resp.StatusCode)
	case !strings.HasPrefix(resp.Header.Get("Content-Type"), q.accept):
		return int(n), fmt.Errorf("%s query: content type %q, want %s", classNames[q.class], resp.Header.Get("Content-Type"), q.accept)
	case wantCache != "" && resp.Header.Get("X-Cache") != wantCache:
		return int(n), fmt.Errorf("%s query: X-Cache %q, want %s", classNames[q.class], resp.Header.Get("X-Cache"), wantCache)
	case n == 0:
		return 0, fmt.Errorf("%s query: empty body", classNames[q.class])
	}
	return int(n), nil
}

// load posts one ingest batch; nil means the server acknowledged it.
func (c *client) load(b *ingestBatch) error {
	req, err := http.NewRequest(http.MethodPost, c.base+"/load", bytes.NewReader(b.body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("load: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if want := fmt.Sprintf("{\"loaded\":%d,", b.triples()); !bytes.HasPrefix(body, []byte(want)) {
		return fmt.Errorf("load: acknowledged %s, want %s...", bytes.TrimSpace(body), want)
	}
	return nil
}

// sample is one timed query.
type sample struct {
	class   int
	failed  bool
	latency time.Duration // open loop: from the due time; closed loop: from the send
	late    time.Duration // how long after its due time the request left
	due     time.Duration // due time, from the start of the phase
	bytes   int
}

// timedLoad is one writer action: post the batch at offset after the
// phase starts, then look for its marker.
type timedLoad struct {
	offset time.Duration
	batch  *ingestBatch
}

// phase describes one timed stretch of traffic.
type phase struct {
	readers int
	// next returns operation i. A closed phase (sched == nil) runs
	// back-to-back until dur has passed; an open phase sends sched's
	// operations at their due times with at most `readers` in flight.
	next  func(i int) query
	dur   time.Duration
	sched *schedule
	loads []timedLoad
}

// phaseResult is what one phase measured.
type phaseResult struct {
	wall    time.Duration
	samples []sample
	acked   []*ingestBatch
	// attempted and failed count every request of the phase: queries,
	// loads and marker probes. wrong counts the failures that were wrong
	// answers rather than refusals.
	attempted, failed, wrong int
	errs                     []string
}

func (r *phaseResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// succeeded counts the phase's good queries and their body bytes.
func (r *phaseResult) succeeded() (n int, bytes int64) {
	for _, s := range r.samples {
		if !s.failed {
			n++
			bytes += int64(s.bytes)
		}
	}
	return
}

func (r *phaseResult) merge(o *phaseResult) {
	r.samples = append(r.samples, o.samples...)
	r.acked = append(r.acked, o.acked...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.errs = append(r.errs, o.errs...)
}

// run drives one phase. Latency in an open phase is charged from the
// instant a request was due, not from when a connection got round to
// sending it: a server stall is paid by every request queued behind it
// (no coordinated omission).
func (c *client) run(p phase, wantCache string) *phaseResult {
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		start   = time.Now()
		results = make([]*phaseResult, p.readers+1)
	)
	for w := 0; w < p.readers; w++ {
		res := &phaseResult{}
		results[w] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				var q query
				var due time.Time
				if p.sched != nil {
					if i >= len(p.sched.ops) {
						return
					}
					q, due = p.sched.ops[i], start.Add(p.sched.due[i])
					sleepUntil(due)
				} else {
					if time.Since(start) >= p.dur {
						return
					}
					q, due = p.next(i), time.Now()
				}
				sent := time.Now()
				n, err := c.query(&q, wantCache, io.Discard)
				s := sample{class: q.class, latency: time.Since(due), late: sent.Sub(due), due: due.Sub(start), bytes: n}
				res.attempted++
				if err != nil {
					s.failed, s.latency = true, failedLatency
					res.fail(err)
				}
				res.samples = append(res.samples, s)
			}
		}()
	}
	writer := &phaseResult{}
	results[p.readers] = writer
	if len(p.loads) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, l := range p.loads {
				sleepUntil(start.Add(l.offset))
				c.loadAndProbe(l.batch, writer)
			}
		}()
	}
	wg.Wait()
	out := &phaseResult{wall: time.Since(start)}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// sleepUntil blocks until t. It calls nanosleep directly: the Go
// runtime rounds a parked goroutine's timer up to the netpoller's
// millisecond granularity, which would send sub-millisecond schedules
// late, and spinning would take a core from the server under test.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		// The kernel may deliver a wake-up late by the thread's timer
		// slack, 50 µs by default; ask for 1 ns on whichever thread sleeps.
		const prSetTimerSlack = 29
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // interrupted early: the loop sleeps again
	}
}

// loadAndProbe posts a batch and, once acknowledged, requires the very
// next query to return the batch's marker feature (read-your-writes).
func (c *client) loadAndProbe(b *ingestBatch, res *phaseResult) {
	res.attempted++
	if err := c.load(b); err != nil {
		res.fail(err)
		return
	}
	res.acked = append(res.acked, b)
	c.probeMarker(b, res)
}

// probeMarker requires an acknowledged batch's marker to be readable.
func (c *client) probeMarker(b *ingestBatch, res *phaseResult) {
	res.attempted++
	var body bytes.Buffer
	q := markerQuery(b.marker())
	if _, err := c.query(&q, "", &body); err != nil {
		res.fail(err)
	} else if !bytes.Contains(body.Bytes(), []byte(`"`+b.marker().iri()+`"`)) {
		res.wrong++
		res.fail(fmt.Errorf("read-your-writes: marker %s missing after its batch was acknowledged", b.marker().iri()))
	}
}

// percentile returns the nearest-rank p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedDurations(samples []sample, pick func(sample) (time.Duration, bool)) []time.Duration {
	out := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		if d, ok := pick(s); ok {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
