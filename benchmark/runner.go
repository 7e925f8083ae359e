package main

import (
	"fmt"
	"net/http"
	"runtime"
	"syscall"
	"time"

	"pneuma"
	"pneuma/internal/server"
	"pneuma/internal/table"
)

// fixture is one built system under test: the Service over a generated
// corpus and the repo's HTTP handler tree mounted on it.
type fixture struct {
	svc     *pneuma.Service
	handler http.Handler
	tables  []*table.Table
}

func newFixture(tables []*table.Table, opts ...pneuma.Option) (*fixture, error) {
	svc, err := pneuma.New(corpus(tables), opts...)
	if err != nil {
		return nil, fmt.Errorf("build fixture: %w", err)
	}
	srv, err := server.New(server.Config{Service: svc})
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("build fixture: %w", err)
	}
	return &fixture{svc: svc, handler: srv.Handler(), tables: tables}, nil
}

// builder times complete fixture builds. Before each build the previous
// fixture is closed and collected, so every build starts from the same heap.
type builder struct {
	build   func() (*fixture, error)
	cur     *fixture
	samples []float64 // seconds per build
}

func (b *builder) next() (*fixture, error) {
	if err := b.close(); err != nil {
		return nil, err
	}
	runtime.GC()
	start := time.Now()
	fx, err := b.build()
	if err != nil {
		return nil, err
	}
	b.samples = append(b.samples, time.Since(start).Seconds())
	b.cur = fx
	return fx, nil
}

// repeat builds n times and keeps the last fixture.
func (b *builder) repeat(n int) (*fixture, error) {
	for i := 1; i < n; i++ {
		if _, err := b.next(); err != nil {
			return nil, err
		}
	}
	return b.next()
}

func (b *builder) close() error {
	if b.cur == nil {
		return nil
	}
	err := b.cur.svc.Close()
	b.cur = nil
	if err != nil {
		return fmt.Errorf("close fixture: %w", err)
	}
	return nil
}

// costs is what a stretch of the run cost the whole process, collector and
// background work included.
type costs struct {
	cpu     time.Duration // user+sys, so time stolen by the host is excluded
	alloc   uint64        // bytes
	mallocs uint64
	gcs     uint32
}

func (c *costs) add(o costs) {
	c.cpu += o.cpu
	c.alloc += o.alloc
	c.mallocs += o.mallocs
	c.gcs += o.gcs
}

type costMeter struct {
	cpu time.Duration
	ms  runtime.MemStats
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startCosts() *costMeter {
	m := &costMeter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = processCPU()
	return m
}

func (m *costMeter) stop() costs {
	cpu := processCPU() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return costs{
		cpu:     cpu,
		alloc:   ms.TotalAlloc - m.ms.TotalAlloc,
		mallocs: ms.Mallocs - m.ms.Mallocs,
		gcs:     ms.NumGC - m.ms.NumGC,
	}
}

// dephaseCollector starts replay r of n at another phase of the collector's
// cycle. Fresh fixtures are built from the same heap state, so without it
// every replay's collections land on the same positions and a position's
// quiet quartile over replays cannot tell the collector from the work. It
// allocates and drops r/n of the live heap, one collector period at the
// default GOGC. What the collector costs stays in the rate and CPU metrics.
func dephaseCollector(r, n int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var garbage []byte
	for left := int(ms.HeapAlloc) * r / n; left > 0; left -= len(garbage) {
		garbage = make([]byte, min(left, 64<<10)) // a size not known at compile time is heap-allocated
	}
	runtime.KeepAlive(garbage)
}

// counts are the operations of one phase.
type counts struct{ attempted, failed int }

func (c *counts) add(o counts) {
	c.attempted += o.attempted
	c.failed += o.failed
}

func (c *counts) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
	}
}

// timings is what a measured phase reports, whichever runner produced it.
type timings struct {
	requests int     // measured requests
	samples  int     // latencies behind p95
	p50, p95 float64 // µs
	rate     float64 // requests per second
	costs    costs
	counts   counts
	firstErr error
	// p95s and rates are the per-slice (or per-position, per-replay) values
	// the quiet quartiles were taken over, printed for whoever doubts them.
	p95s, rates []float64
}

// runSlices executes ops 0..n-1 once, in order, cut into slices of equal
// work. p95 is the quiet quartile over slices of the per-slice p95, rate the
// quiet quartile of per-slice requests per wall second, p50 the median of
// every latency; costs cover the whole phase.
func runSlices(n, slices int, op func(i int) error) timings {
	t := timings{requests: n, samples: n / slices}
	all := make([]float64, 0, n)
	p95s := make([]float64, 0, slices)
	rates := make([]float64, 0, slices)
	meter := startCosts()
	for s := 0; s < slices; s++ {
		lo, hi := s*n/slices, (s+1)*n/slices
		sliceStart := time.Now()
		for i := lo; i < hi; i++ {
			start := time.Now()
			err := op(i)
			all = append(all, micros(time.Since(start)))
			t.counts.record(err)
			if err != nil && t.firstErr == nil {
				t.firstErr = fmt.Errorf("operation %d: %w", i, err)
			}
		}
		wall := time.Since(sliceStart)
		p95s = append(p95s, p95(all[lo:hi]))
		rates = append(rates, float64(hi-lo)/wall.Seconds())
	}
	t.costs = meter.stop()
	t.p50, t.p95, t.rate = median(all), quietLow(p95s), quietHigh(rates)
	t.p95s, t.rates = p95s, rates
	return t
}

// runReplays executes the same operation list once to warm up and replays
// times measured, through drive, which returns one latency per position and
// is told whether the replay is a measured one. With fresh set, every
// replay runs on a newly built fixture. Position i does identical work in
// every replay, so its latency is its quiet quartile over the measured
// replays; p95 and p50 are taken over positions, rate is the quiet quartile
// of per-replay positions per second of summed latency; costs sum over the
// measured drives.
func runReplays(b *builder, fresh bool, replays int, drive func(fx *fixture, measured bool, c *counts) ([]float64, error)) timings {
	const warmups = 1
	var t timings
	var lats [][]float64
	var rates []float64
	fail := func(r int, err error) timings {
		t.firstErr = fmt.Errorf("replay %d: %w", r, err)
		return t
	}
	for r := 0; r < warmups+replays; r++ {
		fx := b.cur
		if fresh || fx == nil {
			var err error
			if fx, err = b.next(); err != nil {
				return fail(r, err)
			}
		}
		if r == warmups {
			runtime.GC()
		}
		if fresh && r > warmups {
			dephaseCollector(r-warmups, replays)
		}
		var c counts
		meter := startCosts()
		lat, err := drive(fx, r >= warmups, &c)
		cost := meter.stop()
		if err != nil {
			t.counts.add(c)
			return fail(r, err)
		}
		if r < warmups {
			continue
		}
		if len(lats) > 0 && len(lat) != len(lats[0]) {
			return fail(r, fmt.Errorf("%d positions, replay %d had %d: replays diverged", len(lat), warmups, len(lats[0])))
		}
		t.counts.add(c)
		t.costs.add(cost)
		lats = append(lats, lat)
		rates = append(rates, float64(len(lat))/(sum(lat)/1e6))
		t.requests += len(lat)
	}
	pos := positionLatencies(lats)
	t.samples = len(pos)
	t.p50, t.p95, t.rate = median(pos), p95(pos), quietHigh(rates)
	t.rates = rates
	return t
}

// heapMB is the live heap after a forced collection, fixture alive.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEndValues assembles the seven end-to-end metrics.
func endToEndValues(t timings, setups []float64, heap, quality float64) values {
	n := float64(t.requests)
	return values{
		"setup_s":              bestOf(setups),
		"heap_mb":              heap,
		"request_p95_us":       t.p95,
		"requests_per_s":       t.rate,
		"cpu_us_per_request":   micros(t.costs.cpu) / n,
		"alloc_kb_per_request": float64(t.costs.alloc) / 1024 / n,
		"quality_ratio":        quality,
	}
}
