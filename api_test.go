package pneuma_test

import (
	"context"
	"strings"
	"testing"

	"pneuma"
)

// TestPublicAPIQuickstart exercises the README's quickstart path through
// the public package only.
func TestPublicAPIQuickstart(t *testing.T) {
	corpus := pneuma.ArchaeologyDataset()
	svc, err := pneuma.New(corpus)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sess := svc.NewSession("api-test")
	reply, err := sess.Send(context.Background(), "What is the average organic matter percentage for soil samples in the Malta region? Round your answer to 4 decimal places.")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Answer == "" {
		t.Fatalf("no answer; message: %s", reply.Message)
	}
	if !strings.Contains(sess.Session().State.View(), "Q[0]") {
		t.Error("state view missing query")
	}
}

func TestPublicAPIEngine(t *testing.T) {
	corpus := pneuma.ArchaeologyDataset()
	eng := pneuma.NewEngine()
	for _, tb := range corpus {
		eng.Register(tb)
	}
	out, err := eng.Query("SELECT COUNT(*) AS n FROM excavation_sites WHERE region = 'Malta'")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Rows[0][0].IntVal() == 0 {
		t.Fatalf("count result: %v", out.Rows)
	}
}

func TestPublicAPIRetriever(t *testing.T) {
	ret := pneuma.NewRetriever()
	for _, tb := range pneuma.ArchaeologyDataset() {
		if err := ret.IndexTables(context.Background(), []*pneuma.Table{tb}); err != nil {
			t.Fatal(err)
		}
	}
	hits, err := ret.Search(context.Background(), "radiocarbon dating results", 2)
	if err != nil || len(hits) == 0 {
		t.Fatalf("search: %v %v", hits, err)
	}
	if hits[0].Title != "radiocarbon_dates" {
		t.Errorf("top = %q", hits[0].Title)
	}
}

func TestPublicAPIQuestionBanks(t *testing.T) {
	arch := pneuma.ArchaeologyDataset()
	if got := len(pneuma.ArchaeologyQuestions(arch)); got != 12 {
		t.Fatalf("arch questions = %d", got)
	}
	env := pneuma.EnvironmentDataset()
	if got := len(pneuma.EnvironmentQuestions(env)); got != 20 {
		t.Fatalf("env questions = %d", got)
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	tb, err := pneuma.ReadCSV("t", strings.NewReader("a,b\n1,x\n2,y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 || tb.NumCols() != 2 {
		t.Fatalf("dims %dx%d", tb.NumRows(), tb.NumCols())
	}
}
