package bm25

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTermTableGrowthUnderSearch streams one-document batches of fresh
// terms through seven or more doublings of the term table while readers
// search. A reader must find every term interned before its search began,
// and a search must show exactly the documents of one view: a prefix of the
// stream no shorter than what was added before it began and no longer
// than what had started by its end. Views pinned along the way must still
// resolve exactly their own terms after every later rebuild.
func TestTermTableGrowthUnderSearch(t *testing.T) {
	const ndocs, readers = 1500, 2
	id := func(i int) string { return fmt.Sprintf("d%05d", i) }
	fresh := func(i int) string { return fmt.Sprintf("t%dq", i) }

	ix := New(Params{})
	var started, done atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := int(done.Load())
				if lo > 0 {
					// Alternate the newest term with an older one.
					j := lo - 1
					if n%2 == 1 {
						j = n % lo
					}
					if got := ix.Search(fresh(j), 2); len(got) != 1 || got[0].ID != id(j) {
						t.Errorf("search %q after %d documents: %v, want [%s]", fresh(j), lo, got, id(j))
						return
					}
				}
				// Every document has the same length and one "common", so
				// the scores tie and the IDs order the hits.
				all := ix.Search("common", ndocs)
				hi := int(started.Load())
				if len(all) < lo || len(all) > hi {
					t.Errorf("search saw %d documents, want between %d and %d", len(all), lo, hi)
					return
				}
				for i, res := range all {
					if res.ID != id(i) {
						t.Errorf("hit %d is %s, want %s: a view is a prefix of the stream", i, res.ID, id(i))
						return
					}
				}
			}
		}()
	}

	var pins []*lexView
	for i := 0; i < ndocs; i++ {
		if i%100 == 0 {
			pins = append(pins, ix.view.Load())
		}
		started.Add(1)
		addOne(ix, id(i), fmt.Sprintf("common %s", fresh(i)))
		done.Add(1)
	}
	close(stop)
	wg.Wait()

	if n := len(*ix.view.Load().terms.entries.Load()); n < 16<<7 {
		t.Fatalf("term table ended at %d entries: fewer than seven doublings from 16", n)
	}
	for _, v := range pins {
		visible := len(v.docs)
		for i := 0; i < ndocs; i++ {
			slot, ok := v.termSlot(fresh(i))
			if i < visible && (!ok || v.plists[slot].term != fresh(i)) {
				t.Fatalf("view of %d documents lost term %q", visible, fresh(i))
			}
			if i >= visible && ok {
				t.Fatalf("view of %d documents resolves later term %q", visible, fresh(i))
			}
		}
	}
}
