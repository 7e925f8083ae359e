package hnsw

// addOne inserts one vector as a batch of one.
func addOne(ix *Index, id string, vec []float32) error {
	return ix.AddBatch([]string{id}, [][]float32{vec})
}

// deleteOne tombstones one ID as a batch of one and reports whether it was
// present.
func deleteOne(ix *Index, id string) bool {
	return ix.DeleteBatch([]string{id}) == 1
}
