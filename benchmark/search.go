package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
)

// searchLoad is search-miss-20k and search-miss-1k: GET /v1/search through
// the repo's handler tree, every query distinct, over a corpus that is
// either far larger than the L2 cache or resident in it.
type searchLoad struct {
	tables      int
	perSecond   int // measured requests per second of --seconds
	setupBuilds int
	graded      int // sampled requests checked against the oracle
}

const (
	searchSlices = 20
	searchK      = 10
	warmShare    = 20 // the untimed warm-up is 1/warmShare of the list
)

// client issues searches the way an HTTP caller would, without a socket:
// the request goes to the handler tree, the reply into an httptest recorder
// whose body buffer is reused so the harness adds no growth allocations.
type client struct {
	handler http.Handler
	body    bytes.Buffer
}

func (c *client) search(query string) error {
	req := httptest.NewRequest(http.MethodGet, "/v1/search?k=10&sources=tables&q="+url.QueryEscape(query), nil)
	c.body.Reset()
	rec := &httptest.ResponseRecorder{HeaderMap: make(http.Header), Body: &c.body, Code: http.StatusOK}
	c.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("search %q: status %d: %s", query, rec.Code, c.body.String())
	}
	if rec.Header().Get("X-Pneuma-Degraded") != "" {
		return fmt.Errorf("search %q: degraded reply", query)
	}
	return nil
}

// servedIDs extracts the document IDs of a /v1/search reply, in order.
func servedIDs(body []byte) ([]string, error) {
	var reply struct {
		Documents []struct {
			ID string `json:"id"`
		} `json:"documents"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, fmt.Errorf("decode search reply: %w", err)
	}
	ids := make([]string, len(reply.Documents))
	for i, d := range reply.Documents {
		ids[i] = d.ID
	}
	return ids, nil
}

func (w searchLoad) sized(cfg config) (tables, requests, graded int) {
	return cfg.tables(w.tables), cfg.ops(w.perSecond*cfg.seconds, searchSlices), cfg.ops(w.graded, 4)
}

func (w searchLoad) run(cfg config) (values, counts, error) {
	nTables, requests, graded := w.sized(cfg)
	in := newInputs(cfg.seed)
	tables := in.tables(0, nTables)
	warm := requests / warmShare
	queries := in.queries("measured", warm+requests, nTables)

	b := &builder{build: func() (*fixture, error) { return newFixture(tables) }}
	defer b.close()
	fx, err := b.repeat(cfg.ops(w.setupBuilds, 1))
	if err != nil {
		return nil, counts{}, err
	}
	c := &client{handler: fx.handler}

	warmed := runSlices(warm, 1, func(i int) error { return c.search(queries[i]) })
	cfg.phase("warm-up", warmed.counts)
	if warmed.firstErr != nil {
		return nil, warmed.counts, warmed.firstErr
	}
	runtime.GC()

	measuredQ := queries[warm:]
	t := runSlices(requests, searchSlices, func(i int) error { return c.search(measuredQ[i]) })
	cfg.phase("measured", t.counts)
	heap := heapMB()
	total := t.counts
	if t.firstErr != nil {
		return nil, total, t.firstErr
	}

	// Grade a sample of the measured queries against the exact ranking. The
	// index is static, so asking again returns what the measured phase saw.
	o := newOracle(tables)
	var checks counts
	var recalls []float64
	for i := 0; i < requests && len(recalls) < graded; i += max(requests/graded, 1) {
		err := c.search(measuredQ[i])
		var ids []string
		if err == nil {
			ids, err = servedIDs(c.body.Bytes())
		}
		checks.record(err)
		if err != nil {
			return nil, checks, err
		}
		recalls = append(recalls, recall(ids, o.top(measuredQ[i], searchK)))
	}
	cfg.phase("oracle", checks)
	total.add(checks)

	cfg.spread("slice_p95_us", t.p95s)
	cfg.spread("slice_requests_per_s", t.rates)
	cfg.spread("setup_s", b.samples)
	cfg.note("setup_builds=%d tables=%d requests=%d slices=%d p95_samples_per_slice=%d graded=%d",
		len(b.samples), nTables, requests, searchSlices, t.samples, len(recalls))
	return endToEndValues(t, b.samples, heap, sum(recalls)/float64(len(recalls))), total, nil
}

func (w searchLoad) trace(cfg config) (values, counts, error) {
	nTables, requests, _ := w.sized(cfg)
	in := newInputs(cfg.seed)
	tr, err := newTracer(cfg, in, in.tables(0, nTables), nTables)
	if err != nil {
		return nil, counts{}, err
	}
	defer tr.close()

	chunk, next := max(requests/16, 20), 0
	queries := in.queries("own", 3*chunk, nTables)
	c := &client{handler: tr.fx.handler}
	err = tr.ownRequest(func(rec *recorder, n *counts) ([]float64, error) {
		lat := make([]float64, chunk)
		for i := range lat {
			var err error
			lat[i] = rec.time(next, "request", "", func() { err = c.search(queries[next]) })
			n.record(err)
			if err != nil {
				return nil, err
			}
			next++
		}
		return lat, nil
	})
	if err == nil {
		err = tr.layers(false)
	}
	if err == nil {
		left := tr.vals["trace.unattributed_ratio"]
		err = cfg.sizing(left <= 0.10, "trace.unattributed_ratio=%.3f (the ladder must place all but 0.10 of a search)", left)
	}
	return tr.finish(err)
}
