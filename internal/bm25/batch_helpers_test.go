package bm25

// addOne indexes one document as a batch of one.
func addOne(ix *Index, id, text string) {
	ix.AddBatch([]string{id}, []string{text})
}

// deleteOne tombstones one document as a batch of one and reports whether
// it was present.
func deleteOne(ix *Index, id string) bool {
	return ix.DeleteBatch([]string{id}) == 1
}
