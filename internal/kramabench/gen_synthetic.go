package kramabench

import (
	"fmt"
	"math/rand"
	"sort"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// synthDomains are vocabulary pools for the scale-test generator; each
// synthetic table draws its name, description and column vocabulary from
// one domain so the corpus has retrieval structure (queries about one
// domain should rank that domain's tables first) instead of being noise.
var synthDomains = []struct {
	name    string
	nouns   []string
	columns []string
}{
	{"shipping", []string{"freight", "container", "manifest", "port", "vessel", "cargo"},
		[]string{"teu_count", "departure_port", "arrival_port", "transit_days", "gross_tonnage"}},
	{"energy", []string{"turbine", "grid", "substation", "reactor", "solar", "demand"},
		[]string{"output_mwh", "capacity_factor", "voltage_kv", "downtime_hours", "fuel_cost"}},
	{"retail", []string{"inventory", "checkout", "warehouse", "supplier", "basket", "promotion"},
		[]string{"sku_count", "unit_price", "stock_level", "reorder_point", "margin_pct"}},
	{"climate", []string{"rainfall", "temperature", "humidity", "station", "anomaly", "forecast"},
		[]string{"reading_c", "precip_mm", "wind_speed", "pressure_hpa", "sensor_id"}},
	{"finance", []string{"ledger", "portfolio", "settlement", "dividend", "exposure", "hedge"},
		[]string{"notional_usd", "yield_bps", "maturity_days", "rating_grade", "counterparty"}},
	{"health", []string{"admission", "diagnosis", "pathology", "vaccination", "clinic", "triage"},
		[]string{"patient_count", "wait_minutes", "dosage_mg", "ward_code", "outcome_score"}},
}

// Synthetic generates an n-table corpus for ingest and retrieval scale
// benchmarks. Tables are small (the cost under test is indexing and
// search, not row storage) but carry domain-structured names, column
// descriptions and sample values, so hybrid retrieval behaves as it does
// on real corpora. The generator is seeded: equal n yields an identical
// corpus.
func Synthetic(n int) map[string]*table.Table {
	rng := rand.New(rand.NewSource(Seed + 7))
	out := make(map[string]*table.Table, n)
	for i := 0; i < n; i++ {
		dom := synthDomains[i%len(synthDomains)]
		noun := dom.nouns[rng.Intn(len(dom.nouns))]
		name := fmt.Sprintf("%s_%s_%04d", dom.name, noun, i)
		cols := []table.Column{
			{Name: "record_id", Type: value.KindInt, Description: "Unique record identifier"},
			{Name: "region", Type: value.KindString, Description: "Geographic region of the " + noun + " record"},
		}
		nExtra := 2 + rng.Intn(3)
		for c := 0; c < nExtra; c++ {
			cn := dom.columns[(i+c)%len(dom.columns)]
			cols = append(cols, table.Column{
				Name:        cn,
				Type:        value.KindFloat,
				Description: fmt.Sprintf("Measured %s for the %s %s series", cn, dom.name, noun),
			})
		}
		t := table.New(table.Schema{
			Name:        name,
			Description: fmt.Sprintf("%s %s records for the %s domain scale benchmark", dom.name, noun, dom.name),
			Columns:     cols,
		})
		for r := 0; r < 8; r++ {
			row := table.Row{value.Int(int64(i*100 + r)), value.String(archRegions[rng.Intn(len(archRegions))])}
			for c := 0; c < nExtra; c++ {
				row = append(row, value.Float(rng.Float64()*1000))
			}
			t.MustAppend(row)
		}
		out[name] = t
	}
	return out
}

// SyntheticSlice returns Synthetic(n) as a slice sorted by table name —
// a deterministic ingest order.
func SyntheticSlice(n int) []*table.Table {
	corpus := Synthetic(n)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*table.Table, 0, len(names))
	for _, name := range names {
		out = append(out, corpus[name])
	}
	return out
}
