package retriever

import (
	"context"

	"pneuma/internal/docs"
)

// indexOne adds one document as a batch of one.
func indexOne(r *Retriever, ctx context.Context, d docs.Document) error {
	return r.IndexDocuments(ctx, []docs.Document{d})
}

// deleteOne removes one document as a batch of one and reports whether it
// was present.
func deleteOne(r *Retriever, id string) bool {
	return r.DeleteDocuments([]string{id}) == 1
}
