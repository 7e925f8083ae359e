package main

import (
	"context"
	"fmt"
	"time"

	"pneuma"
	"pneuma/internal/table"
)

// churnLoad is churn-1k: the retriever, index and IR-cache layers used as
// writes beside reads. One request is one cycle through pneuma.Service:
// add churnBatch new tables, read, delete the batch added one cycle earlier,
// read again. Every sweep replays the same cycles on a freshly built
// fixture, so tombstones pile up identically in each.
type churnLoad struct {
	tables          int
	cyclesPerSecond int // cycles of one sweep per second of --seconds
	sweeps          int
	survivorQueries int // end-of-sweep queries graded against the oracle
}

const (
	churnBatch    = 8  // tables added, and later deleted, per cycle
	churnHot      = 4  // hot-set queries the reads cycle through
	churnReads    = 16 // reads after each write: churnHot misses, then hits
	churnProbeGap = 20 // every churnProbeGap-th cycle is followed by a probe
)

// churnPlan is the seed-derived operation list of one sweep.
type churnPlan struct {
	base      []*table.Table
	pool      []*table.Table // churnBatch per cycle
	hot       []string
	survivors []string // end-of-sweep queries
	cycles    int
}

func (w churnLoad) plan(cfg config, in *inputs) churnPlan {
	nTables, cycles := cfg.tables(w.tables), cfg.ops(w.cyclesPerSecond*cfg.seconds, 2)
	return churnPlan{
		base:      in.tables(0, nTables),
		pool:      in.tables(nTables, cycles*churnBatch),
		hot:       in.queries("hot", churnHot, nTables),
		survivors: in.queries("survivors", cfg.ops(w.survivorQueries, 5), nTables),
		cycles:    cycles,
	}
}

func (p churnPlan) batch(cycle int) []*table.Table {
	return p.pool[cycle*churnBatch : (cycle+1)*churnBatch]
}

func names(ts []*table.Table) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Schema.Name
	}
	return out
}

// churnSweep is what one sweep measured beside its cycle latencies.
type churnSweep struct {
	writes   float64   // µs spent in AddTables and DeleteTables
	adds     []float64 // µs per AddTables
	deletes  []float64 // µs per DeleteTables
	outcomes []float64 // probe and parity outcomes, 0 or 1 (parity: recall)
}

// reader is how a cycle reads: through the Service in the workload, through
// the IR System in the per-layer probe.
type reader func(ctx context.Context, query string) ([]pneuma.Document, error)

// cycle runs one cycle and returns its latency in µs, split so the caller
// can see what the writes cost.
func (p churnPlan) cycle(svc *pneuma.Service, read reader, i int, c *counts, sw *churnSweep, eachRead func(miss bool, us float64)) (float64, error) {
	ctx := context.Background()
	start := time.Now()
	reads := func() error {
		for r := 0; r < churnReads; r++ {
			t0 := time.Now()
			ds, err := read(ctx, p.hot[r%churnHot])
			if err == nil && len(ds) == 0 {
				err = fmt.Errorf("hot query %q found nothing", p.hot[r%churnHot])
			}
			if eachRead != nil {
				eachRead(r < churnHot, micros(time.Since(t0)))
			}
			c.record(err)
			if err != nil {
				return err
			}
		}
		return nil
	}

	t0 := time.Now()
	err := svc.AddTables(ctx, p.batch(i)...)
	add := micros(time.Since(t0))
	c.record(err)
	if err != nil {
		return 0, err
	}
	if err := reads(); err != nil {
		return 0, err
	}
	del := 0.0
	if i > 0 {
		t0 = time.Now()
		n, err := svc.DeleteTables(ctx, names(p.batch(i-1))...)
		del = micros(time.Since(t0))
		if err == nil && n != churnBatch {
			err = fmt.Errorf("cycle %d deleted %d tables, want %d", i, n, churnBatch)
		}
		c.record(err)
		if err != nil {
			return 0, err
		}
		sw.deletes = append(sw.deletes, del)
	}
	if err := reads(); err != nil {
		return 0, err
	}
	sw.adds = append(sw.adds, add)
	sw.writes += add + del
	return micros(time.Since(start)), nil
}

// probe checks the index after cycle i: each table just added must be in the
// top-10 for a query built from its own description, and no table deleted so
// far may appear in any of those answers. Two outcomes per added table.
func (p churnPlan) probe(ctx context.Context, svc *pneuma.Service, i int, c *counts, sw *churnSweep) error {
	gone := make(map[string]bool, i*churnBatch)
	for _, t := range p.pool[:i*churnBatch] {
		gone["table:"+t.Schema.Name] = true
	}
	for _, t := range p.batch(i) {
		ds, err := svc.SearchIn(ctx, ownQuery(t), searchK, "tables")
		c.record(err)
		if err != nil {
			return err
		}
		found, clean := 0.0, 1.0
		for _, d := range ds {
			if d.ID == "table:"+t.Schema.Name {
				found = 1
			}
			if gone[d.ID] {
				clean = 0
			}
		}
		sw.outcomes = append(sw.outcomes, found, clean)
	}
	return nil
}

// sweep replays every cycle on fx, then grades the survivors' ranking
// against want (the exact answers over base plus the last batch).
func (p churnPlan) sweep(fx *fixture, c *counts, want [][]string) ([]float64, churnSweep, error) {
	ctx := context.Background()
	var sw churnSweep
	read := func(ctx context.Context, q string) ([]pneuma.Document, error) {
		return fx.svc.SearchIn(ctx, q, searchK, "tables")
	}
	lat := make([]float64, 0, p.cycles)
	for i := 0; i < p.cycles; i++ {
		us, err := p.cycle(fx.svc, read, i, c, &sw, nil)
		if err != nil {
			return nil, sw, fmt.Errorf("cycle %d: %w", i, err)
		}
		lat = append(lat, us)
		if (i+1)%churnProbeGap == 0 || i == p.cycles-1 {
			if err := p.probe(ctx, fx.svc, i, c, &sw); err != nil {
				return nil, sw, fmt.Errorf("probe after cycle %d: %w", i, err)
			}
		}
	}
	for qi, q := range p.survivors {
		ds, err := fx.svc.SearchIn(ctx, q, searchK, "tables")
		c.record(err)
		if err != nil {
			return nil, sw, fmt.Errorf("survivor query: %w", err)
		}
		ids := make([]string, len(ds))
		for i, d := range ds {
			ids[i] = d.ID
		}
		sw.outcomes = append(sw.outcomes, recall(ids, want[qi]))
	}
	return lat, sw, nil
}

// survivorsWanted is the exact top-10 of every survivor query over what a
// finished sweep leaves in the index.
func (p churnPlan) survivorsWanted() [][]string {
	left := append(append([]*table.Table{}, p.base...), p.batch(p.cycles-1)...)
	o := newOracle(left)
	want := make([][]string, len(p.survivors))
	for i, q := range p.survivors {
		want[i] = o.top(q, searchK)
	}
	return want
}

func (w churnLoad) run(cfg config) (values, counts, error) {
	in := newInputs(cfg.seed)
	p := w.plan(cfg, in)
	want := p.survivorsWanted()

	b := &builder{build: func() (*fixture, error) { return newFixture(p.base) }}
	defer b.close()
	var outcomes []float64
	var writes, total float64
	sweeps := cfg.ops(w.sweeps, 2)
	t := runReplays(b, true, sweeps, func(fx *fixture, measured bool, c *counts) ([]float64, error) {
		lat, sw, err := p.sweep(fx, c, want)
		if err != nil {
			return nil, err
		}
		if measured {
			outcomes = append(outcomes, sw.outcomes...)
			writes += sw.writes
			total += sum(lat)
		}
		return lat, nil
	})
	cfg.phase("measured", t.counts)
	if t.firstErr != nil {
		return nil, t.counts, t.firstErr
	}
	heap := heapMB()

	share := writes / total
	cfg.spread("sweep_requests_per_s", t.rates)
	cfg.spread("setup_s", b.samples)
	cfg.note("setup_builds=%d tables=%d sweeps=%d cycles_per_sweep=%d positions=%d outcomes=%d",
		len(b.samples), len(p.base), sweeps, p.cycles, t.samples, len(outcomes))
	if err := cfg.sizing(share >= 0.40 && share <= 0.75, "write_share=%.3f (writes must be 0.40..0.75 of a cycle)", share); err != nil {
		return nil, t.counts, err
	}
	return endToEndValues(t, b.samples, heap, sum(outcomes)/float64(len(outcomes))), t.counts, nil
}

func (w churnLoad) trace(cfg config) (values, counts, error) {
	in := newInputs(cfg.seed)
	p := w.plan(cfg, in)
	tr, err := newTracer(cfg, in, p.base, len(p.base))
	if err != nil {
		return nil, counts{}, err
	}
	defer tr.close()

	// Each pass continues the sweep where the last one stopped.
	chunk, next := max(p.cycles/8, 1), 0
	read := func(ctx context.Context, q string) ([]pneuma.Document, error) {
		return tr.fx.svc.SearchIn(ctx, q, searchK, "tables")
	}
	err = tr.ownRequest(func(rec *recorder, c *counts) ([]float64, error) {
		var sw churnSweep
		lat := make([]float64, chunk)
		for i := range lat {
			var err error
			lat[i] = rec.time(next, "request", "", func() {
				_, err = p.cycle(tr.fx.svc, read, next, c, &sw, nil)
			})
			if err != nil {
				return nil, fmt.Errorf("cycle %d: %w", next, err)
			}
			next++
		}
		return lat, nil
	})
	if err == nil {
		_, err = tr.fx.svc.DeleteTables(context.Background(), names(p.batch(next-1))...)
	}
	if err == nil {
		err = tr.layers(false)
	}
	return tr.finish(err)
}
