package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestIndexSmoke builds the real pneuma-index binary and drives the disk
// workflow end to end with the flags that reach retriever.Open: a first
// run ingests three CSVs into a quantized, per-record-synced disk index
// and answers a query; a second run against the same -index-dir must load
// the persisted index without re-ingest and return the same top hit.
func TestIndexSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pneuma-index binary; skipped in -short")
	}

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "pneuma-index")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building pneuma-index: %v", err)
	}

	csvDir := filepath.Join(tmp, "csv")
	if err := os.Mkdir(csvDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"soil_samples.csv":  "site,potassium_ppm,organic_matter_pct\nmalta,212,4.1\ngozo,187,3.6\n",
		"rainfall.csv":      "station,month,rainfall_mm\ncoastal,jan,88\ninland,jan,61\n",
		"freight_rates.csv": "route,tonnage,rate_usd\nnorth,1200,14.5\nsouth,900,11.0\n",
	} {
		if err := os.WriteFile(filepath.Join(csvDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	run := func() string {
		t.Helper()
		out, err := exec.Command(bin, "-dir", csvDir, "-backend", "disk",
			"-index-dir", filepath.Join(tmp, "idx"), "-sync-bytes", "1", "-quantize",
			"-q", "potassium in soil samples").CombinedOutput()
		if err != nil {
			t.Fatalf("pneuma-index: %v\n%s", err, out)
		}
		return string(out)
	}
	const topHit = "1. soil_samples "

	first := run()
	if !strings.Contains(first, "3 tables indexed across") || !strings.Contains(first, topHit) {
		t.Fatalf("first run:\n%s", first)
	}
	second := run()
	if !strings.Contains(second, "loaded 3 documents") || !strings.Contains(second, "without re-ingest") ||
		!strings.Contains(second, topHit) {
		t.Fatalf("second run:\n%s", second)
	}
}
