package main

import (
	"math"
	"testing"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Abs(b) }

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose; must not be modified
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.25, 17.5}, {0.5, 25}, {0.75, 32.5}, {1, 40}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile sorted its argument in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing must be NaN so report refuses it")
	}
}

// slices are 20 equal-work slices whose clean values differ a little.
func slices(base float64) []float64 {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = base * (1 + 0.001*float64(i%7))
	}
	return xs
}

func TestBurstOverAThirdOfSlicesDoesNotMoveTheQuietQuartile(t *testing.T) {
	lat, rate := slices(500), slices(2000)
	wantLat, wantRate := quietLow(lat), quietHigh(rate)
	for i := 3; i < 3+7; i++ { // 7 of 20 slices hit by a neighbour
		lat[i] *= 3
		rate[i] /= 3
	}
	if got := quietLow(lat); !near(got, wantLat, 0.005) {
		t.Errorf("latency quartile moved from %v to %v under a burst", wantLat, got)
	}
	if got := quietHigh(rate); !near(got, wantRate, 0.005) {
		t.Errorf("rate quartile moved from %v to %v under a burst", wantRate, got)
	}
}

func TestShiftOfEverySliceMovesTheQuietQuartile(t *testing.T) {
	lat, rate := slices(500), slices(2000)
	wantLat, wantRate := 1.1*quietLow(lat), quietHigh(rate)/1.1
	for i := range lat {
		lat[i] *= 1.1
		rate[i] /= 1.1
	}
	if got := quietLow(lat); !near(got, wantLat, 1e-9) {
		t.Errorf("latency quartile = %v after a 10%% slowdown, want %v", got, wantLat)
	}
	if got := quietHigh(rate); !near(got, wantRate, 1e-9) {
		t.Errorf("rate quartile = %v after a 10%% slowdown, want %v", got, wantRate)
	}
}

func TestPositionLatenciesReadEachPositionFromItsQuietReplays(t *testing.T) {
	clean := []float64{100, 200, 5000, 300}
	var replays [][]float64
	for r := 0; r < 8; r++ {
		row := append([]float64(nil), clean...)
		if r >= 2 { // only two quiet replays out of eight
			for i := range row {
				row[i] *= 4
			}
		}
		replays = append(replays, row)
	}
	got := positionLatencies(replays)
	for i, want := range clean {
		if got[i] != want {
			t.Errorf("position %d = %v, want %v", i, got[i], want)
		}
	}
	if p := p95(got); p < 300 || p > 5000 {
		t.Errorf("p95 over positions = %v, outside the positions' range", p)
	}
}

func TestQuietQuartilesRoundToTheGoodSide(t *testing.T) {
	three := []float64{30, 10, 20}
	if quietLow(three) != 10 || quietHigh(three) != 30 {
		t.Errorf("of three: low %v, high %v; want the best one each", quietLow(three), quietHigh(three))
	}
	var twenty []float64
	for i := 20; i >= 1; i-- {
		twenty = append(twenty, float64(i))
	}
	if quietLow(twenty) != 5 || quietHigh(twenty) != 16 {
		t.Errorf("of 1..20: low %v, high %v; want 5 and 16", quietLow(twenty), quietHigh(twenty))
	}
}

func TestBestOfIsTheFastestBuild(t *testing.T) {
	if got := bestOf([]float64{0.31, 0.27, 0.52, 0.28}); got != 0.27 {
		t.Errorf("bestOf = %v, want 0.27", got)
	}
}

func TestRunSlicesCountsAndCuts(t *testing.T) {
	calls := 0
	got := runSlices(100, 20, func(i int) error {
		if i != calls {
			t.Fatalf("operation %d ran at position %d", i, calls)
		}
		calls++
		return nil
	})
	if calls != 100 || got.requests != 100 || got.samples != 5 || len(got.p95s) != 20 || len(got.rates) != 20 {
		t.Errorf("runSlices ran %d ops: %+v", calls, got)
	}
	if got.counts != (counts{attempted: 100}) || got.firstErr != nil {
		t.Errorf("counts = %+v, err = %v", got.counts, got.firstErr)
	}
	if !(got.p95 > 0 && got.rate > 0 && got.p50 > 0) {
		t.Errorf("timings not positive: %+v", got)
	}
}
