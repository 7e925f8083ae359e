package baselines

import (
	"context"
	"pneuma/internal/llm"
	"pneuma/internal/retriever"
	"pneuma/internal/table"
)

// RAG is the LlamaIndex-style baseline (§4.1): "adds an LLM on top of a
// top-k vector retriever to interpret the retrieved data". It retrieves
// with the latest utterance only (classic RAG has no planning loop), asks
// the model to interpret the chunks, and can neither keep relational state
// nor execute queries — hence 0% accuracy in Table 3 despite healthy
// convergence.
type RAG struct {
	ret   *retriever.Retriever
	model llm.Model
	meter *llm.Meter
	topK  int
}

// NewRAG indexes the corpus with a vector-only retriever (the
// representative RAG configuration).
func NewRAG(corpus map[string]*table.Table, model llm.Model) (*RAG, error) {
	ret := retriever.New(retriever.WithMode(retriever.ModeVectorOnly))
	if err := ret.IndexTables(context.Background(), sortedTables(corpus)); err != nil {
		return nil, err
	}
	if model == nil {
		model = llm.NewSimModel()
	}
	meter := llm.NewMeter()
	return &RAG{
		ret:   ret,
		model: &llm.MeteredModel{Inner: model, Meter: meter, Component: "rag"},
		meter: meter,
		topK:  3,
	}, nil
}

// Meter exposes token usage for cost reporting.
func (r *RAG) Meter() *llm.Meter { return r.meter }

// Name implements System.
func (r *RAG) Name() string { return "LlamaIndex" }

// Kind implements System.
func (r *RAG) Kind() string { return "rag" }

// StartConversation implements System.
func (r *RAG) StartConversation() Conversation {
	return &ragConv{r: r}
}

type ragConv struct {
	r        *RAG
	messages []string
}

func (c *ragConv) Respond(ctx context.Context, utterance string) (Output, error) {
	c.messages = append(c.messages, utterance)
	hits, err := c.r.ret.Search(ctx, utterance, c.r.topK)
	if err != nil {
		return Output{}, err
	}
	in := llm.InterpretInput{UserMessages: c.messages}
	for _, h := range hits {
		in.Docs = append(in.Docs, llm.NewDocInfo(h, 12))
	}
	resp, err := c.r.model.Complete(ctx, llm.Request{
		Task: llm.TaskInterpret,
		System: "You are a retrieval-augmented assistant. Interpret the retrieved " +
			"context for the user. You cannot execute code or queries.",
		Payload: llm.MarshalPayload(in),
	})
	if err != nil {
		return Output{}, err
	}
	var interp llm.InterpretOutput
	if err := llm.DecodeResponse(resp, &interp); err != nil {
		return Output{}, err
	}
	return Output{
		Message:          interp.Message,
		MentionedColumns: interp.MentionedColumns,
		ContextTokens:    llm.EstimateTokens(interp.Message),
	}, nil
}
