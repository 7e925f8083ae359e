package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pneuma"
	"pneuma/internal/bm25"
	"pneuma/internal/core"
	"pneuma/internal/docs"
	"pneuma/internal/embed"
	"pneuma/internal/hnsw"
	"pneuma/internal/ir"
	"pneuma/internal/kramabench"
	"pneuma/internal/llm"
	"pneuma/internal/retriever"
	"pneuma/internal/sqlengine"
	"pneuma/internal/table"
	"pneuma/internal/vecmath"
)

// The traced run measures layers from outside: it times calls into each
// layer's public functions on the workload's own fixture and records every
// call as a span. Spans inside the program are a later change (ROADMAP
// item 2). Every workload runs every probe, so all of them report the same
// per-layer metrics.

const (
	probePoolFirst = 60000 // serials of tables the probes add; above any corpus
	ladderShare    = 100   // ladder queries per second of --seconds
	hnswSeed       = 20260118
)

// timingModel is the llm.Model every traced fixture is built with. While a
// traced pass lends it the recorder, it records each completion as a span
// under the turn that caused it.
type timingModel struct {
	llm.Model
	rec  *recorder
	turn int // trace id of the turn in progress
}

func (m *timingModel) Complete(ctx context.Context, req llm.Request) (resp llm.Response, err error) {
	m.rec.time(m.turn, "llm.complete", "core.turn", func() { resp, err = m.Model.Complete(ctx, req) })
	return resp, err
}

// tracer is one traced run.
type tracer struct {
	cfg       config
	in        *inputs
	fx        *fixture
	generated int // the fixture's generated tables have serials below this
	rec       *recorder
	model     *timingModel
	vals      values
	n         counts
	ladderN   int
}

// newTracer builds the workload's fixture once, around the timing model.
func newTracer(cfg config, in *inputs, tables []*table.Table, generated int) (*tracer, error) {
	rec := newRecorder()
	model := &timingModel{Model: llm.NewSimModel()}
	fx, err := newFixture(tables, pneuma.WithModel(model))
	if err != nil {
		return nil, err
	}
	n := ladderShare * cfg.seconds
	if generated >= 10000 {
		n /= 4 // a miss costs three times as much over 20k tables
	}
	n = cfg.ops(n, 20)
	return &tracer{cfg: cfg, in: in, fx: fx, generated: generated, rec: rec, model: model, vals: values{}, ladderN: n}, nil
}

func (tr *tracer) close() error { return tr.fx.svc.Close() }

// ownRequest runs the workload's own request three times over equal work:
// a warm-up, an untraced pass and a traced pass. own returns one latency
// per request and records a root span per request when handed a recorder.
func (tr *tracer) ownRequest(own func(rec *recorder, c *counts) ([]float64, error)) error {
	if _, err := own(nil, &tr.n); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	runtime.GC()
	before := tr.fx.svc.Stats().Scheduler
	meter := startCosts()
	plain, err := own(nil, &tr.n)
	cost := meter.stop()
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	after := tr.fx.svc.Stats().Scheduler
	traced, err := own(tr.rec, &tr.n)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	n := float64(len(plain))
	admitted := float64(after.Completed - before.Completed)
	tr.vals["request.p50_us"] = median(plain)
	tr.vals["runtime.mallocs_per_request"] = float64(cost.mallocs) / n
	tr.vals["runtime.gc_cycles_per_1k_requests"] = 1000 * float64(cost.gcs) / n
	tr.vals["service.sched.hold_us_per_req"] = micros(after.Busy-before.Busy) / admitted
	tr.vals["service.sched.queue_wait_us_per_req"] = micros(after.QueueWait-before.QueueWait) / admitted
	// Request i does the same or like work in both passes; the median of
	// the paired ratios does not care where a bimodal request mix puts its
	// median.
	ratios := make([]float64, len(plain))
	for i := range plain {
		ratios[i] = traced[i] / plain[i]
	}
	tr.vals["trace.overhead_ratio"] = median(ratios)
	return nil
}

// deadline is the context the server hands down: cancellable, so the layers
// below run the path they run in production.
func deadline() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// ladder times one probe list at every layer, each layer on its own
// rotation of the query words: equal work, distinct cache keys. The four
// layers of the real fixture take turns, one call each per step, on queries
// a stride apart: every layer's samples cover the same stretch of time, so
// interference from the host falls on all of them alike, and no call finds
// the caches warmed by the same query one layer up. The leaves run on the
// replica in passes of their own, before and after, and the faster pass
// counts (interference only adds time): taking turns with searches over
// the real index would evict the replica from the caches between any two
// of its calls, which no shard of the real index suffers. A layer's self
// time is its median span minus its child's.
func (tr *tracer) ladder(replica *shardReplica) error {
	queries := tr.in.queries("ladder", tr.ladderN, tr.generated)
	svc := tr.fx.svc
	irsys := svc.Seeker().IR()
	tables := irsys.Tables
	c := &client{handler: tr.fx.handler}
	var sizes []float64

	type layer struct {
		name, parent string
		call         func(ctx context.Context, q string) error
	}
	layers := []layer{
		{"server.search", "", func(_ context.Context, q string) error {
			err := c.search(q)
			sizes = append(sizes, float64(c.body.Len()))
			return err
		}},
		{"service.search", "server.search", func(ctx context.Context, q string) error {
			_, err := svc.SearchIn(ctx, q, searchK, "tables")
			return err
		}},
		{"ir.query.miss", "service.search", func(ctx context.Context, q string) error {
			_, err := irsys.Query(ctx, ir.Request{Query: q, K: searchK, Sources: []ir.Source{ir.SourceTables}})
			return err
		}},
		{"retriever.search", "ir.query.miss", func(ctx context.Context, q string) error {
			_, err := tables.Search(ctx, q, searchK)
			return err
		}},
	}
	med, err := tr.leaves(replica, queries)
	if err != nil {
		return err
	}
	stride := len(queries) / len(layers)
	for step := range queries {
		for depth, l := range layers {
			i := (step + depth*stride) % len(queries)
			ctx, cancel := deadline()
			var err error
			tr.rec.time(i, l.name, l.parent, func() { err = l.call(ctx, permuted(queries[i], depth)) })
			cancel()
			tr.n.record(err)
			if err != nil {
				return fmt.Errorf("%s: %w", l.name, err)
			}
		}
	}
	again, err := tr.leaves(replica, queries)
	if err != nil {
		return err
	}
	for name, us := range again {
		med[name] = math.Min(med[name], us)
	}
	for _, l := range layers {
		med[l.name] = median(tr.rec.durations(l.name))
	}
	shards := float64(tables.NumShards())
	root := med["server.search"]
	parts := []float64{
		root - med["service.search"],
		med["service.search"] - med["ir.query.miss"],
		med["ir.query.miss"] - med["retriever.search"],
		med["retriever.search"] - med["embed.query"] - shards*(med["hnsw.search"]+med["bm25.search"]),
		med["embed.query"], shards * med["hnsw.search"], shards * med["bm25.search"],
	}
	tr.vals["server.search.p50_us"] = root
	tr.vals["server.search.self_us"] = parts[0]
	tr.vals["server.search.response_bytes"] = median(sizes)
	tr.vals["service.search.self_us"] = parts[1]
	tr.vals["ir.query.miss.self_us"] = parts[2]
	tr.vals["retriever.search.p50_us"] = med["retriever.search"]
	tr.vals["retriever.search.self_us"] = parts[3]
	tr.vals["embed.query_us"] = med["embed.query"]
	tr.vals["hnsw.search_us"] = med["hnsw.search"]
	tr.vals["bm25.search_us"] = med["bm25.search"]

	// A negative self time is two measurements disagreeing, not time; what
	// the clamped parts fail to add up to is what the ladder cannot place.
	var placed float64
	for _, p := range parts {
		placed += math.Max(p, 0)
	}
	tr.vals["trace.unattributed_ratio"] = math.Abs(1 - placed/root)
	tr.cfg.note("ladder queries=%d shards=%d root=%.1fus placed=%.1fus parts=%.1f", len(queries), int(shards), root, placed, parts)

	// What a search allocates, and what one P hides: the same searches with
	// a second P for the fan-out, in alternating blocks.
	probe := queries[:min(len(queries), 300)]
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, err := tr.searchAll(tables, probe, 4); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	tr.vals["retriever.search.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(probe))
	tr.vals["retriever.search.bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(probe))

	var onePs, twoPs []float64
	const block = 50
	for lo := 0; lo < len(probe); lo += block {
		hi := min(lo+block, len(probe))
		one, err := tr.searchAll(tables, probe[lo:hi], 5)
		if err != nil {
			return err
		}
		before := runtime.GOMAXPROCS(2)
		two, err := tr.searchAll(tables, probe[lo:hi], 6)
		runtime.GOMAXPROCS(before)
		if err != nil {
			return err
		}
		onePs, twoPs = append(onePs, one...), append(twoPs, two...)
	}
	tr.vals["retriever.search.two_p_speedup_ratio"] = median(onePs) / median(twoPs)
	return nil
}

// leaves is one pass of the query embedding and of one shard's vector and
// lexical searches on the replica (the retriever's shards are private),
// returning each leaf's median.
func (tr *tracer) leaves(replica *shardReplica, queries []string) (map[string]float64, error) {
	fetch := oracleFetch(searchK)
	var embedUS, hnswUS, bm25US []float64
	for i, q := range queries {
		var vec []float32
		var err error
		embedUS = append(embedUS, tr.rec.time(i, "embed.query", "retriever.search", func() { vec = replica.emb.Embed(q) }))
		hnswUS = append(hnswUS, tr.rec.time(i, "hnsw.search", "retriever.search", func() { _, err = replica.vec.Search(vec, fetch) }))
		tr.n.record(err)
		if err != nil {
			return nil, fmt.Errorf("hnsw.search: %w", err)
		}
		bm25US = append(bm25US, tr.rec.time(i, "bm25.search", "retriever.search", func() { replica.lex.Search(q, fetch) }))
	}
	return map[string]float64{"embed.query": median(embedUS), "hnsw.search": median(hnswUS), "bm25.search": median(bm25US)}, nil
}

func (tr *tracer) searchAll(r *retriever.Retriever, queries []string, shift int) ([]float64, error) {
	out := make([]float64, len(queries))
	for i, q := range queries {
		ctx, cancel := deadline()
		var err error
		out[i] = timed(func() { _, err = r.Search(ctx, permuted(q, shift), searchK) })
		cancel()
		tr.n.record(err)
		if err != nil {
			return nil, fmt.Errorf("retriever.search: %w", err)
		}
	}
	return out, nil
}

// shardReplica rebuilds what one shard of the fixture's index holds: the
// first tables/shards generated tables in an HNSW graph and a BM25 index of
// their own, with the retriever's defaults.
type shardReplica struct {
	emb  *embed.Embedder
	vec  *hnsw.Index
	lex  *bm25.Index
	vecs [][]float32
	ids  []string
}

func (tr *tracer) buildReplica() (*shardReplica, error) {
	shards := tr.fx.svc.Seeker().IR().Tables.NumShards()
	n := max(tr.generated/shards, 1)
	rp := &shardReplica{emb: embed.New()}
	texts := make([]string, n)
	for i, t := range tr.fx.tables[:n] {
		d := docs.TableDocument(t)
		rp.ids = append(rp.ids, d.ID)
		texts[i] = d.Content
	}
	start := time.Now()
	vecs, err := rp.emb.EmbedBatch(context.Background(), texts, 1)
	if err != nil {
		return nil, fmt.Errorf("embed replica: %w", err)
	}
	tr.vals["embed.table_us"] = micros(time.Since(start)) / float64(n)
	rp.vecs = vecs

	rp.vec = hnsw.New(rp.emb.Dim(), hnsw.Config{Seed: hnswSeed})
	start = time.Now()
	err = rp.vec.AddBatch(rp.ids, vecs)
	tr.n.record(err)
	if err != nil {
		return nil, fmt.Errorf("hnsw.add: %w", err)
	}
	tr.vals["hnsw.add.us_per_doc"] = micros(time.Since(start)) / float64(n)

	rp.lex = bm25.New(bm25.Params{})
	start = time.Now()
	rp.lex.AddBatch(rp.ids, texts)
	tr.vals["bm25.add.us_per_doc"] = micros(time.Since(start)) / float64(n)

	// Recall of the graph against an exact scan of the same vectors.
	var recalls []float64
	for _, q := range tr.in.queries("replica-recall", min(200, tr.ladderN), tr.generated) {
		qv := rp.emb.Embed(q)
		got, err := rp.vec.Search(qv, searchK)
		tr.n.record(err)
		if err != nil {
			return nil, fmt.Errorf("hnsw.search: %w", err)
		}
		gotIDs := make([]string, len(got))
		for i, r := range got {
			gotIDs[i] = r.ID
		}
		recalls = append(recalls, recall(gotIDs, rp.exact(qv, searchK)))
	}
	tr.vals["hnsw.recall_at_10"] = sum(recalls) / float64(len(recalls))
	return rp, nil
}

// exact is the brute-force top-k of the replica by cosine, ties by ID.
func (rp *shardReplica) exact(q []float32, k int) []string {
	o := &oracle{ids: rp.ids}
	var best []ranked
	qn := norm(q)
	for d, v := range rp.vecs {
		var dot float64
		for i, x := range q {
			dot += float64(x) * float64(v[i])
		}
		best = o.keep(best, k, ranked{d, dot / (qn * norm(v))})
	}
	out := make([]string, len(best))
	for i, r := range best {
		out[i] = rp.ids[r.doc]
	}
	return out
}

// writes measures the retriever's write side on a scratch index of its own,
// then the disk backend with the same tables.
func (tr *tracer) writes() error {
	n := tr.cfg.tables(1000)
	pool := tr.in.tables(probePoolFirst, n)
	ids := make([]string, n)
	for i, t := range pool {
		ids[i] = "table:" + t.Schema.Name
	}
	ctx := context.Background()

	scratch := retriever.New()
	start := time.Now()
	err := scratch.IndexTables(ctx, pool)
	tr.n.record(err)
	if err != nil {
		return fmt.Errorf("retriever.ingest: %w", err)
	}
	tr.vals["retriever.ingest.us_per_table"] = micros(time.Since(start)) / float64(n)
	start = time.Now()
	removed := scratch.DeleteDocuments(ids)
	tr.vals["retriever.delete.us_per_doc"] = micros(time.Since(start)) / float64(n)
	err = scratch.Close()
	if err == nil && removed != n {
		err = fmt.Errorf("deleted %d of %d documents", removed, n)
	}
	tr.n.record(err)
	if err != nil {
		return fmt.Errorf("retriever.delete: %w", err)
	}
	f32, _ := tr.fx.svc.Seeker().IR().Tables.ArenaBytes()
	tr.vals["retriever.arena_mb"] = float64(f32) / (1 << 20)

	return tr.disk(pool)
}

// disk measures the backend no workload crosses: build, flush, close and
// reopen cold; the reopened index must answer as the one that was written.
func (tr *tracer) disk(pool []*table.Table) error {
	n, ctx := len(pool), context.Background()
	dir := filepath.Join(tr.cfg.traceDir, fmt.Sprintf("disk-%s-%d-%d", tr.cfg.workload, tr.cfg.seed, os.Getpid()))
	if err := os.MkdirAll(tr.cfg.traceDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func() (*retriever.Retriever, error) {
		return retriever.Open(retriever.WithBackend(retriever.Disk), retriever.WithDir(dir))
	}
	answers := func(r *retriever.Retriever) (string, error) {
		var all []string
		for _, q := range tr.in.queriesOver("disk", 50, probePoolFirst, n) {
			ds, err := r.Search(ctx, q, searchK)
			if err != nil {
				return "", err
			}
			for _, d := range ds {
				all = append(all, fmt.Sprintf("%s=%v", d.ID, d.Score))
			}
		}
		return fmt.Sprint(all), nil
	}
	disk, err := open()
	if err != nil {
		return fmt.Errorf("retriever.disk: %w", err)
	}
	if err := disk.IndexTables(ctx, pool); err != nil {
		disk.Close()
		return fmt.Errorf("retriever.disk: %w", err)
	}
	start := time.Now()
	err = disk.Flush()
	tr.vals["retriever.disk.flush_ms"] = micros(time.Since(start)) / 1e3
	written, aerr := answers(disk)
	if cerr := disk.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = aerr
	}
	tr.n.record(err)
	if err != nil {
		return fmt.Errorf("retriever.disk: %w", err)
	}
	var size int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		size += info.Size()
		return err
	})
	if err != nil {
		return fmt.Errorf("retriever.disk: %w", err)
	}
	tr.vals["retriever.disk.bytes_per_table"] = float64(size) / float64(n)
	start = time.Now()
	disk, err = open()
	if err != nil {
		return fmt.Errorf("retriever.disk: reopen: %w", err)
	}
	tr.vals["retriever.disk.cold_open_ms"] = micros(time.Since(start)) / 1e3
	reopened, err := answers(disk)
	if cerr := disk.Close(); err == nil {
		err = cerr
	}
	if err == nil && reopened != written {
		err = fmt.Errorf("reopened index answers differently from the one written")
	}
	tr.n.record(err)
	if err != nil {
		return fmt.Errorf("retriever.disk: %w", err)
	}
	return nil
}

// kernels times the batched scoring kernels over an arena of the fixture's
// size, addressed by random index lists as HNSW traversal addresses it.
func (tr *tracer) kernels() {
	const batch, rounds = 32, 4000
	dim := embed.DefaultDim
	n := len(tr.fx.tables)
	rng := tr.in.stream("kernels", n)
	arena := make([]float32, n*dim)
	codes := make([]int8, n*dim)
	for i := range arena {
		arena[i] = rng.Float32() - 0.5
		codes[i] = int8(rng.Intn(256) - 128)
	}
	q, q8 := arena[:dim], codes[:dim]
	idxs := make([]int32, batch)
	out := make([]float32, batch)
	out8 := make([]int32, batch)
	time32, time8 := make([]float64, rounds), make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		for i := range idxs {
			idxs[i] = int32(rng.Intn(n))
		}
		start := time.Now()
		vecmath.DotBatch(q, arena, dim, idxs, out)
		mid := time.Now()
		vecmath.DotInt8Batch(q8, codes, dim, idxs, out8)
		time32[r] = float64(mid.Sub(start).Nanoseconds()) / batch
		time8[r] = float64(time.Since(mid).Nanoseconds()) / batch
	}
	tr.vals["vecmath.dot_batch.ns_per_cand"] = median(time32)
	tr.vals["vecmath.dot_int8_batch.ns_per_cand"] = median(time8)
}

// cycles runs a few churn cycles on the fixture, reading through the IR
// System, for the write-side and cache metrics.
func (tr *tracer) cycles() error {
	cycles := tr.cfg.ops(24, 2)
	p := churnPlan{
		pool:   tr.in.tables(probePoolFirst+2000, cycles*churnBatch),
		hot:    tr.in.queries("probe-hot", churnHot, tr.generated),
		cycles: cycles,
	}
	irsys := tr.fx.svc.Seeker().IR()
	read := func(ctx context.Context, q string) ([]pneuma.Document, error) {
		res, err := irsys.Query(ctx, ir.Request{Query: q, K: searchK, Sources: []ir.Source{ir.SourceTables}})
		return res.Documents, err
	}
	var sw churnSweep
	var hits, afterWrite []float64
	for i := 0; i < cycles; i++ {
		_, err := p.cycle(tr.fx.svc, read, i, &tr.n, &sw, func(miss bool, us float64) {
			if miss {
				afterWrite = append(afterWrite, us)
			} else {
				hits = append(hits, us)
			}
		})
		if err != nil {
			return fmt.Errorf("probe cycle %d: %w", i, err)
		}
	}
	// Leave the fixture as it was found.
	if _, err := tr.fx.svc.DeleteTables(context.Background(), names(p.batch(cycles-1))...); err != nil {
		return err
	}
	tr.vals["service.add_tables.p50_us"] = median(sw.adds)
	tr.vals["service.delete_tables.p50_us"] = median(sw.deletes)
	tr.vals["ir.query.hit_us"] = median(hits)
	tr.vals["ir.read_after_write.p50_us"] = median(afterWrite)
	return nil
}

// conversations derives the turn-level metrics from a traced pass.
func (tr *tracer) conversations(ps *pass, conversations int) error {
	turns := float64(len(ps.turns))
	llmUS := map[int]float64{}
	var llmTotal, llmCalls float64
	for _, s := range tr.rec.spans {
		if s.Name == "llm.complete" {
			us := float64(s.End-s.Start) / 1e3
			llmUS[s.Trace] += us
			llmTotal += us
			llmCalls++
		}
	}
	var turnUS, minusLLM []float64
	var actions, retrieves, materializes, executes float64
	for i, t := range ps.turns {
		turnUS = append(turnUS, t.us)
		minusLLM = append(minusLLM, t.us-llmUS[i])
		actions += float64(t.actions)
		retrieves += float64(t.byKind[llm.ActionRetrieve])
		materializes += float64(t.byKind[llm.ActionMaterialize])
		executes += float64(t.byKind[llm.ActionExecute])
	}
	var tokens pneuma.Usage
	var materializeUS []float64
	mat := core.NewMaterializer(tr.model.Model, 3)
	for _, ss := range ps.sessions {
		tokens.Add(ss.Meter().Snapshot().Total)
		sess := ss.Session()
		if !sess.State.IsMaterialized() {
			continue
		}
		for _, spec := range sess.State.Specs {
			var err error
			materializeUS = append(materializeUS, tr.rec.time(len(materializeUS), "core.materialize", "", func() {
				_, err = mat.Materialize(context.Background(), spec, sess.Docs, sess.State.Queries)
			}))
			tr.n.record(err)
			if err != nil {
				return fmt.Errorf("core.materialize %s: %w", spec.Name, err)
			}
		}
	}
	if len(materializeUS) == 0 {
		return fmt.Errorf("no conversation of the traced pass materialized its state")
	}
	tr.vals["core.turn.p50_us"] = median(turnUS)
	tr.vals["core.turn.minus_llm_us"] = median(minusLLM)
	tr.vals["core.turns_per_conversation"] = turns / float64(conversations)
	tr.vals["core.actions_per_turn"] = actions / turns
	tr.vals["core.ir_actions_per_turn"] = retrieves / turns
	tr.vals["core.materialize_actions_per_turn"] = materializes / turns
	tr.vals["core.sql_actions_per_turn"] = executes / turns
	tr.vals["llm.complete.us_per_turn"] = llmTotal / turns
	tr.vals["llm.calls_per_turn"] = llmCalls / turns
	tr.vals["llm.tokens_in_per_turn"] = float64(tokens.InTokens) / turns
	tr.vals["llm.tokens_out_per_turn"] = float64(tokens.OutTokens) / turns
	tr.vals["core.materialize_us"] = median(materializeUS)
	return nil
}

// archaeologyPass is the turn-level probe of a fixture that holds no
// kramabench tables: it adds the archaeology dataset, runs its questions
// once warm and once traced, and takes the dataset out again.
func (tr *tracer) archaeologyPass() error {
	bench := kramabench.Archaeology()
	p := seekerPlan{questions: kramabench.ArchaeologyQuestions(bench)}
	p.questions = p.questions[:tr.cfg.ops(len(p.questions), 1)]
	var added []*table.Table
	for _, t := range bench {
		added = append(added, t)
	}
	ctx := context.Background()
	err := tr.fx.svc.AddTables(ctx, added...)
	tr.n.record(err)
	if err != nil {
		return fmt.Errorf("add archaeology: %w", err)
	}
	if _, err := p.converse(tr.fx.svc, nil, nil, &tr.n); err != nil {
		return err
	}
	ps, err := p.converse(tr.fx.svc, tr.rec, tr.model, &tr.n)
	if err != nil {
		return err
	}
	if err := tr.conversations(ps, len(p.questions)); err != nil {
		return err
	}
	_, err = tr.fx.svc.DeleteTables(ctx, names(added)...)
	return err
}

// The eight statements of sqlengine.query_us, over the environment dataset:
// filter and aggregate, group-by, equi-join.
var sqlStatements = []string{
	"SELECT AVG(elevation_m) FROM stations WHERE station_type = 'air'",
	"SELECT COUNT(*) FROM stations WHERE established_year >= 1990 AND status = 'operational'",
	"SELECT MAX(length_km) FROM rivers WHERE navigable = TRUE",
	"SELECT region, COUNT(*) FROM stations GROUP BY region",
	"SELECT region, AVG(avg_flow_m3s) FROM rivers GROUP BY region ORDER BY region",
	"SELECT trophic_state, MAX(max_depth_m) FROM lakes GROUP BY trophic_state",
	"SELECT s.region, COUNT(*) FROM stations s JOIN rivers r ON s.region = r.region WHERE r.protected = TRUE GROUP BY s.region",
	"SELECT AVG(l.surface_km2) FROM lakes l JOIN rivers r ON l.region = r.region WHERE r.length_km > 200",
}

// substrate times the SQL engine and table profiling on the environment
// dataset, which needs no index.
func (tr *tracer) substrate() error {
	env := kramabench.Environment()
	eng := sqlengine.NewEngine()
	var profileUS []float64
	envNames := make([]string, 0, len(env))
	for name := range env {
		envNames = append(envNames, name)
	}
	sort.Strings(envNames)
	profiled := tr.cfg.ops(len(envNames), 2)
	for i, name := range envNames {
		eng.Register(env[name])
		if i >= profiled {
			continue
		}
		fresh := env[name].Clone() // a clone carries no cached profile
		profileUS = append(profileUS, tr.rec.time(i, "table.build_profile", "", func() { fresh.BuildProfile() }))
	}
	var queryUS []float64
	for round := 0; round < tr.cfg.ops(5, 1); round++ {
		for i, stmt := range sqlStatements {
			var err error
			var out *table.Table
			us := tr.rec.time(i, "sqlengine.query", "", func() { out, err = eng.Query(stmt) })
			if err == nil && out.NumRows() == 0 {
				err = fmt.Errorf("no rows")
			}
			tr.n.record(err)
			if err != nil {
				return fmt.Errorf("sqlengine.query %q: %w", stmt, err)
			}
			queryUS = append(queryUS, us)
		}
	}
	tr.vals["sqlengine.query_us"] = median(queryUS)
	tr.vals["table.build_profile_us"] = median(profileUS)
	return nil
}

// layers runs every probe that does not depend on the workload's request.
// turnsDone says the workload's own traced pass already covered the
// turn-level metrics.
func (tr *tracer) layers(turnsDone bool) error {
	replica, err := tr.buildReplica()
	if err != nil {
		return err
	}
	if err := tr.ladder(replica); err != nil {
		return err
	}
	if err := tr.writes(); err != nil {
		return err
	}
	tr.kernels()
	if err := tr.cycles(); err != nil {
		return err
	}
	if !turnsDone {
		if err := tr.archaeologyPass(); err != nil {
			return err
		}
	}
	return tr.substrate()
}

// finish ends a traced run whose measuring returned err: it writes the
// spans and hands back the metrics, or the error.
func (tr *tracer) finish(err error) (values, counts, error) {
	if err != nil {
		return nil, tr.n, err
	}
	path := filepath.Join(tr.cfg.traceDir, fmt.Sprintf("trace-%s-seed%d.json", tr.cfg.workload, tr.cfg.seed))
	err = tr.rec.write(path, map[string]any{
		"workload": tr.cfg.workload, "seed": tr.cfg.seed, "seconds": tr.cfg.seconds, "gomaxprocs": runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, tr.n, err
	}
	tr.cfg.phase("traced", tr.n)
	tr.cfg.note("trace spans=%d file=%s", len(tr.rec.spans), path)
	return tr.vals, tr.n, nil
}
