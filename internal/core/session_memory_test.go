package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pneuma/internal/baselines"
	"pneuma/internal/core"
	"pneuma/internal/docs"
	"pneuma/internal/harness"
	"pneuma/internal/kramabench"
	"pneuma/internal/llm"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// scriptedPlans is a Materializer model that answers each planning call with
// the next plan of a script.
type scriptedPlans struct {
	plans []llm.MaterializePlan
	calls int
}

func (s *scriptedPlans) Name() string      { return "scripted" }
func (s *scriptedPlans) ContextLimit() int { return 1 << 20 }
func (s *scriptedPlans) Complete(_ context.Context, req llm.Request) (llm.Response, error) {
	if req.Task != llm.TaskMaterializePlan || s.calls >= len(s.plans) {
		return llm.Response{}, fmt.Errorf("scripted model: unexpected %s call %d", req.Task, s.calls)
	}
	s.calls++
	return llm.Response{Payload: llm.MarshalPayload(s.plans[s.calls-1])}, nil
}

// sameTable compares two tables column for column and cell for cell.
func sameTable(a, b *table.Table) bool {
	if !reflect.DeepEqual(a.Schema, b.Schema) || a.NumRows() != b.NumRows() {
		return false
	}
	for i := range a.NumRows() {
		row := a.Row(i)
		if len(row) != len(b.Row(i)) {
			return false
		}
		for j, v := range row {
			if v != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

func nitratePlan() llm.MaterializePlan {
	return llm.MaterializePlan{Steps: []llm.MatStep{
		{Op: "base", Table: "water_nitrate"},
		{Op: "join", Table: "stations", Arg: "station_id=station_id"},
		{Op: "parse_dates", Column: "year"},
		{Op: "interpolate", Column: "nitrate_mgl", Arg: "year"},
		{Op: "project", Arg: "station_name, region, year, nitrate_mgl"},
	}}
}

// edited returns nitratePlan with one step changed.
func edited(step int, edit func(*llm.MatStep)) llm.MaterializePlan {
	p := nitratePlan()
	edit(&p.Steps[step])
	return p
}

// memoFixture is one Seeker over two Environment tables, a session of it,
// and a Materializer whose every planning call is answered from a script.
type memoFixture struct {
	t      *testing.T
	seeker *core.Seeker
	sess   *core.Session
	docs   []docs.Document
}

func newMemoFixture(t *testing.T) *memoFixture {
	env := kramabench.Environment()
	corpus := map[string]*table.Table{"water_nitrate": env["water_nitrate"], "stations": env["stations"]}
	seeker, err := core.New(context.Background(), core.Config{}, corpus, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seeker.Close() })
	return &memoFixture{t: t, seeker: seeker, sess: seeker.NewSession("memo"), docs: envDocs(corpus, "water_nitrate", "stations")}
}

// materialize runs one plan for one spec name through sess's memo.
func (f *memoFixture) materialize(sess *core.Session, name string, plan llm.MaterializePlan, retrieved []docs.Document) *table.Table {
	f.t.Helper()
	model := &scriptedPlans{plans: []llm.MaterializePlan{plan}}
	res, err := core.NewMaterializer(model, 0).MaterializeInSession(context.Background(), sess, llm.TableSpec{Name: name}, retrieved, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	if model.calls != 1 {
		f.t.Fatalf("the model was asked for %d plan(s), want 1: a remembered table does not skip the planning call", model.calls)
	}
	return res.Table
}

func TestMaterializeMemoReturnsTheSameTable(t *testing.T) {
	f := newMemoFixture(t)
	first := f.materialize(f.sess, "target", nitratePlan(), f.docs)
	second := f.materialize(f.sess, "target", nitratePlan(), f.docs)
	if first != second {
		t.Fatal("the second materialization of an unchanged plan built a new table")
	}
	fresh, err := core.NewMaterializer(nil, 0).ExecutePlan(nitratePlan(), llm.TableSpec{Name: "target"}, f.docs)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == second || fingerprint(fresh) != fingerprint(second) || !sameTable(fresh, second) {
		t.Fatal("the remembered table differs from a fresh execution of its plan")
	}

	// Anything execute reads is part of the key.
	replaced := envDocs(map[string]*table.Table{
		"water_nitrate": f.docs[0].Table,
		"stations":      f.docs[1].Table.Head(f.docs[1].Table.NumRows()), // same name, same rows, another table
	}, "water_nitrate", "stations")
	misses := []struct {
		what string
		name string
		plan llm.MaterializePlan
		docs []docs.Document
	}{
		{"a step's Arg", "target", edited(4, func(s *llm.MatStep) { s.Arg = "station_name, year, nitrate_mgl" }), f.docs},
		{"a step's Lenient", "target", edited(2, func(s *llm.MatStep) { s.Lenient = true }), f.docs},
		{"a step's Column", "target", edited(3, func(s *llm.MatStep) { s.Column = "station_id" }), f.docs},
		{"the spec name", "other", nitratePlan(), f.docs},
		{"a source table", "target", nitratePlan(), replaced},
	}
	for _, m := range misses {
		if got := f.materialize(f.sess, m.name, m.plan, m.docs); got == first {
			t.Errorf("changing %s still returned the remembered table", m.what)
		}
		if got := f.materialize(f.sess, "target", nitratePlan(), f.docs); got != first {
			t.Errorf("after a miss on %s the original plan was executed again", m.what)
		}
	}

	// Another session of the same Seeker remembers nothing of this one, and
	// a bare Materializer nothing at all.
	if other := f.materialize(f.seeker.NewSession("other"), "target", nitratePlan(), f.docs); other == first || !sameTable(other, first) {
		t.Error("a second session must build its own, equal, table")
	}
	bare := core.NewMaterializer(&scriptedPlans{plans: []llm.MaterializePlan{nitratePlan(), nitratePlan()}}, 0)
	var built [2]*table.Table
	for i := range built {
		res, err := bare.Materialize(context.Background(), llm.TableSpec{Name: "target"}, f.docs, nil)
		if err != nil {
			t.Fatal(err)
		}
		built[i] = res.Table
	}
	if built[0] == built[1] || built[0] == first {
		t.Error("Materializer.Materialize must execute its plan on every call")
	}
}

func TestMaterializeMemoEvictsLeastRecentlyUsed(t *testing.T) {
	f := newMemoFixture(t)
	base := llm.MaterializePlan{Steps: []llm.MatStep{{Op: "base", Table: "stations"}}}
	name := func(i int) string { return fmt.Sprintf("t%d", i) }
	tables := make([]*table.Table, core.PlanMemoSize+1)
	for i := 0; i < core.PlanMemoSize; i++ {
		tables[i] = f.materialize(f.sess, name(i), base, f.docs)
	}
	// Use t0 again, so t1 is now the oldest; the ninth entry pushes t1 out.
	if f.materialize(f.sess, name(0), base, f.docs) != tables[0] {
		t.Fatal("t0 was forgotten before the memo was full")
	}
	tables[core.PlanMemoSize] = f.materialize(f.sess, name(core.PlanMemoSize), base, f.docs)
	if got := len(f.sess.Memo()); got != core.PlanMemoSize {
		t.Fatalf("memo holds %d entries, bound is %d", got, core.PlanMemoSize)
	}
	for i := range tables {
		if i != 1 && f.materialize(f.sess, name(i), base, f.docs) != tables[i] {
			t.Errorf("t%d was evicted, want only the least recently used t1", i)
		}
	}
	if f.materialize(f.sess, name(1), base, f.docs) == tables[1] {
		t.Error("t1 survived a full memo's ninth entry")
	}
}

// TestMaterializeMemoRepeatsTheRepairLoop: a failed execution is not
// remembered, so the repeat fails on the same step with the same text, the
// model repairs it the same way, and only the repaired plan is a hit.
func TestMaterializeMemoRepeatsTheRepairLoop(t *testing.T) {
	dirty := table.New(table.Schema{Name: "artifacts", Columns: []table.Column{
		{Name: "region", Type: value.KindString}, {Name: "catalog_date", Type: value.KindString}, {Name: "grade", Type: value.KindInt}}})
	for _, r := range [][2]string{{"Malta", "March 5, 1972"}, {"Malta", "1975-06-01"}, {"Malta", "n.d."}, {"Gozo", "April 9, 1977"}} {
		dirty.MustAppend(table.Row{value.String(r[0]), value.String(r[1]), value.Int(3)})
	}
	retrieved := []docs.Document{docs.TableDocument(dirty)}
	spec := llm.TableSpec{Name: "target_artifacts", BaseTable: "artifacts", Columns: []string{"region", "catalog_date", "grade"},
		Transforms: []llm.TransformSpec{{Kind: "parse_dates", Column: "catalog_date"}}}
	queries := []string{"SELECT AVG(grade) AS answer FROM target_artifacts WHERE YEAR(catalog_date) BETWEEN 1970 AND 1980"}

	var seeker *core.Seeker
	sess := seeker.NewSession("repair") // a session needs no Seeker to remember
	m := core.NewMaterializer(llm.NewSimModel(), 3)
	first, err := m.MaterializeInSession(context.Background(), sess, spec, retrieved, queries)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.MaterializeInSession(context.Background(), sess, spec, retrieved, queries)
	if err != nil {
		t.Fatal(err)
	}
	if first.Repairs == 0 || len(first.Errors) == 0 {
		t.Fatalf("the fixture no longer needs a repair: %+v", first)
	}
	if !reflect.DeepEqual(first.Errors, second.Errors) || !reflect.DeepEqual(first.Plans, second.Plans) || first.Repairs != second.Repairs {
		t.Errorf("the repeat took another path:\n first %q %+v\nsecond %q %+v", first.Errors, first.Plans, second.Errors, second.Plans)
	}
	if first.Table != second.Table {
		t.Error("the repaired plan's table was built twice")
	}
	if got := len(sess.Memo()); got != 1 {
		t.Errorf("memo holds %d entries, want only the plan that succeeded", got)
	}
}

// recordingModel passes every call to the SimModel and lets a test look at
// the request first.
type recordingModel struct {
	llm.Model
	inspect func(llm.Request)
}

func (r *recordingModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	r.inspect(req)
	return r.Model.Complete(ctx, req)
}

// watchedSeeker is harness.SeekerSystem with the session in reach: the
// simulated user talks to a core.Session, and before and after every turn the
// test gets to look at it.
type watchedSeeker struct {
	seeker *core.Seeker
	start  func(*core.Session)
	turn   func(sess *core.Session, send func())
}

func (w *watchedSeeker) Name() string { return "Pneuma-Seeker" }
func (w *watchedSeeker) Kind() string { return "seeker" }
func (w *watchedSeeker) StartConversation() baselines.Conversation {
	sess := w.seeker.NewSession("llm-sim")
	if w.start != nil {
		w.start(sess)
	}
	return &watchedConv{w, sess}
}

type watchedConv struct {
	w    *watchedSeeker
	sess *core.Session
}

func (c *watchedConv) Respond(ctx context.Context, utterance string) (baselines.Output, error) {
	var reply core.Reply
	var err error
	send := func() { reply, err = c.sess.Send(ctx, utterance) }
	if c.w.turn != nil {
		c.w.turn(c.sess, send)
	} else {
		send()
	}
	if err != nil {
		return baselines.Output{Message: fmt.Sprintf("The system hit an internal error: %v", err), ContextTokens: 64}, nil
	}
	state := reply.State
	tokens := llm.EstimateTokens(reply.Message) + llm.EstimateTokens(state.ResultPreview)
	for _, q := range state.Queries {
		tokens += llm.EstimateTokens(q)
	}
	for _, t := range state.Tables {
		tokens += 8 * len(t.Columns)
	}
	return baselines.Output{Message: reply.Message, MentionedColumns: reply.MentionedColumns, State: &state,
		Answer: reply.Answer, ContextTokens: tokens}, nil
}

var kramabenchDatasets = []struct {
	name      string
	corpus    func() map[string]*table.Table
	questions func(map[string]*table.Table) []kramabench.Question
}{
	{"archaeology", kramabench.Archaeology, kramabench.ArchaeologyQuestions},
	{"environment", kramabench.Environment, kramabench.EnvironmentQuestions},
}

// TestMemoHitsEqualFreshExecution is the end-to-end guard for the memo:
// in every kramabench conversation, under dynamic planning and the static
// pipeline, each table a turn took from the memo is what executing its plan
// at that moment builds.
func TestMemoHitsEqualFreshExecution(t *testing.T) {
	for _, ds := range kramabenchDatasets {
		corpus := ds.corpus()
		questions := ds.questions(corpus)
		for _, dynamic := range []bool{true, false} {
			materializePlans := 0
			model := &recordingModel{Model: llm.NewSimModel(), inspect: func(req llm.Request) {
				if req.Task == llm.TaskMaterializePlan {
					materializePlans++
				}
			}}
			seeker, err := core.New(context.Background(), core.Config{Model: model, DynamicPlanning: &dynamic}, corpus, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			hits := 0
			sys := &watchedSeeker{seeker: seeker, turn: func(sess *core.Session, send func()) {
				remembered := make(map[*table.Table]core.MemoEntry)
				for _, e := range sess.Memo() {
					remembered[e.Result] = e
				}
				plansBefore := materializePlans
				send()
				if materializePlans == plansBefore {
					return // nothing was materialized this turn
				}
				for name, got := range sess.State.Materialized {
					e, hit := remembered[got]
					if !hit {
						continue
					}
					hits++
					fresh, err := e.Execute()
					if err != nil {
						t.Fatalf("%s dynamic=%v: re-executing the remembered plan of %s: %v", ds.name, dynamic, name, err)
					}
					if fresh == got || !sameTable(fresh, got) {
						t.Errorf("%s dynamic=%v: the remembered %s differs from a fresh execution of its plan", ds.name, dynamic, name)
					}
				}
			}}
			user := llm.NewSimModel(llm.WithProfile("gpt-4o"))
			for _, q := range questions {
				if _, err := harness.RunConversation(context.Background(), sys, q, user, harness.DefaultMaxTurns); err != nil {
					t.Fatalf("%s %s dynamic=%v: %v", ds.name, q.ID, dynamic, err)
				}
			}
			seeker.Close()
			if hits == 0 {
				t.Errorf("%s dynamic=%v: no turn re-materialized an unchanged plan, so the guard checked nothing", ds.name, dynamic)
			}
			t.Logf("%s dynamic=%v: %d remembered table(s) over %d materialize-plan call(s)", ds.name, dynamic, hits, materializePlans)
		}
	}
}

// TestPlanningContextMatchesDirectRendering: what the Conductor sends the
// model, with table documents rendered once per session, is byte for byte
// what rendering every document for every call produces — payload and every
// section, specialized and not, over multi-turn conversations.
func TestPlanningContextMatchesDirectRendering(t *testing.T) {
	corpus := kramabench.Archaeology()
	questions := kramabench.ArchaeologyQuestions(corpus)[:6]
	for _, specialized := range []bool{true, false} {
		sampleVals, summaries := 12, []int{10}
		if !specialized {
			sampleVals, summaries = 40, []int{10, 40}
		}
		var sess *core.Session
		planCalls, repeatCalls := 0, 0
		model := &recordingModel{Model: llm.NewSimModel(), inspect: func(req llm.Request) {
			if req.Task != llm.TaskConductorPlan {
				return
			}
			planCalls++
			if planCalls > 1 && len(sess.Docs) > 0 {
				repeatCalls++
			}
			var in llm.ConductorInput
			if err := json.Unmarshal(req.Payload, &in); err != nil {
				t.Fatal(err)
			}
			in.Docs = nil
			for _, d := range sess.Docs {
				in.Docs = append(in.Docs, llm.NewDocInfo(d, sampleVals))
			}
			if want := llm.MarshalPayload(in); !bytes.Equal(req.Payload, want) {
				t.Fatalf("specialized=%v call %d: payload differs from direct rendering\n got %s\nwant %s", specialized, planCalls, req.Payload, want)
			}
			if len(req.Sections) != len(summaries) {
				t.Fatalf("specialized=%v: %d sections, want %d", specialized, len(req.Sections), len(summaries))
			}
			for i, n := range summaries {
				var want strings.Builder
				for _, d := range sess.Docs {
					want.WriteString(d.Summary(n))
				}
				if strings.Join(req.Sections[i].Body, "") != want.String() {
					t.Fatalf("specialized=%v call %d: section %s differs from direct rendering", specialized, planCalls, req.Sections[i].Title)
				}
			}
		}}
		seeker, err := core.New(context.Background(), core.Config{Model: model, Specialized: &specialized}, corpus, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sys := &watchedSeeker{seeker: seeker, start: func(s *core.Session) { sess, planCalls = s, 0 }}
		user := llm.NewSimModel(llm.WithProfile("gpt-4o"))
		turns := 0
		for _, q := range questions {
			res, err := harness.RunConversation(context.Background(), sys, q, user, harness.DefaultMaxTurns)
			if err != nil {
				t.Fatal(err)
			}
			turns = max(turns, res.Turns)
		}
		seeker.Close()
		if turns < 2 || repeatCalls == 0 {
			t.Errorf("specialized=%v: longest conversation %d turn(s), %d planning call(s) re-showed documents; the cache was never read", specialized, turns, repeatCalls)
		}
	}
}

// TestRenderingFollowsAReplacedTable: a document shed under context pressure
// and retrieved again after its table was replaced in the corpus — same ID,
// another table — is rendered from the new table.
func TestRenderingFollowsAReplacedTable(t *testing.T) {
	mk := func(name, site string) docs.Document {
		tb := table.New(table.Schema{Name: name, Columns: []table.Column{{Name: "site", Type: value.KindString}}})
		tb.MustAppend(table.Row{value.String(site)})
		return docs.TableDocument(tb)
	}
	var seeker *core.Seeker
	sess := seeker.NewSession("shed")
	old := mk("d", "Valletta")
	sess.MergeDocs([]docs.Document{mk("a", "x"), mk("b", "x"), mk("c", "x"), old})
	for _, d := range sess.Docs {
		sess.DocSummary(d, 10)
		sess.DocInfo(d, 12)
	}
	sess.ShedDocs()
	replacement := mk("d", "Mdina")
	if replacement.ID != old.ID || sess.MergeDocs([]docs.Document{replacement}) != 1 {
		t.Fatal("the replacement was not merged as the shed document's successor")
	}
	for _, d := range []docs.Document{replacement, old, replacement} {
		if got, want := sess.DocSummary(d, 10), d.Summary(10); got != want {
			t.Errorf("summary of %s (%s):\n got %q\nwant %q", d.ID, d.Table.At(0, 0), got, want)
		}
		if got, want := sess.DocInfo(d, 12), llm.NewDocInfo(d, 12); !reflect.DeepEqual(got, want) {
			t.Errorf("doc info of %s (%s):\n got %+v\nwant %+v", d.ID, d.Table.At(0, 0), got, want)
		}
	}
	if got := sess.DocSummary(replacement, 3); got != replacement.Summary(3) || got == sess.DocSummary(replacement, 0) {
		t.Error("a rendering must be remembered per sample bound")
	}
	note := docs.Document{ID: "note:1", Kind: docs.KindKnowledge, Title: "n", Content: "body", Source: "document-db"}
	if sess.DocSummary(note, 10) != note.Summary(10) || !reflect.DeepEqual(sess.DocInfo(note, 12), llm.NewDocInfo(note, 12)) {
		t.Error("a document without a table is rendered directly")
	}
}
