package kramabench

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"pneuma/internal/llm"
	"pneuma/internal/table"
	"pneuma/internal/transform"
)

// Question is one benchmark item: a latent information need, the oracle's
// ground-truth answer, and metadata for the harness.
type Question struct {
	ID      string
	Dataset string
	// Need is the structured latent information need driving LLM Sim.
	Need llm.NeedSpec
	// Answer is the oracle's ground truth (numeric answers are rendered
	// with the question's rounding applied).
	Answer string
	// RelevantTables are the ground-truth tables (the O3 whole-table
	// baseline serializes exactly these).
	RelevantTables []string
	// Tags label the difficulty axes the question exercises.
	Tags []string
}

// AnswersMatch compares a system answer against the ground truth: numeric
// answers compare after rounding to the question's precision, other answers
// compare case-insensitively.
func (q Question) AnswersMatch(got string) bool {
	got = strings.TrimSpace(got)
	if got == "" {
		return false
	}
	want := q.Answer
	gf, gerr := strconv.ParseFloat(got, 64)
	wf, werr := strconv.ParseFloat(want, 64)
	if gerr == nil && werr == nil {
		r := q.Need.RoundTo
		if r < 0 {
			r = 6
		}
		return roundTo(gf, r) == roundTo(wf, r)
	}
	return strings.EqualFold(got, want)
}

// ArchaeologyQuestions builds the 12 archaeology questions with oracle
// answers computed from the corpus.
func ArchaeologyQuestions(corpus map[string]*table.Table) []Question {
	soil := corpus["soil_samples"]
	artifacts := corpus["artifacts"]
	radiocarbon := corpus["radiocarbon_dates"]
	occupation := corpus["occupation_records"]

	var qs []Question
	add := func(q Question) { qs = append(qs, q) }

	// A1 — easy filtered average; transparent column name.
	{
		vals := floatsOf(soil, rowsWhere(soil, eq("region", "Malta")), "organic_pct")
		ans := mustAgg(vals, "AVG", "A1")
		add(Question{
			ID: "A1", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "historical soil chemistry data from the Malta region",
				MeasurePhrase: "organic matter percentage",
				MeasureColumn: "organic_pct",
				Tables:        []string{"soil_samples"},
				Aggregate:     "AVG",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "Malta", ColumnPhrase: "region"}},
				RoundTo:       4,
				QuestionText:  "What is the average organic matter percentage for soil samples in the Malta region? Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"soil_samples"},
			Tags:           []string{"easy", "filtered-aggregate"},
		})
	}

	// A2 — max with transparent name.
	{
		vals := floatsOf(soil, rowsWhere(soil, eq("region", "Gozo")), "depth_cm")
		ans := mustAgg(vals, "MAX", "A2")
		add(Question{
			ID: "A2", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "soil sampling campaigns around the Gozo region",
				MeasurePhrase: "sampling depth",
				MeasureColumn: "depth_cm",
				Tables:        []string{"soil_samples"},
				Aggregate:     "MAX",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "Gozo", ColumnPhrase: "region"}},
				RoundTo:       2,
				QuestionText:  "What is the maximum sampling depth for soil samples in the Gozo region? Round your answer to 2 decimal places.",
			},
			Answer:         formatAnswer(ans, 2),
			RelevantTables: []string{"soil_samples"},
			Tags:           []string{"easy", "filtered-aggregate"},
		})
	}

	// A3 — count over a year range.
	{
		rows := rowsWhere(occupation, eq("region", "Malta"), intBetween("study_year", 1940, 1960))
		add(Question{
			ID: "A3", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "occupation records of ancient settlements in the Malta region",
				MeasurePhrase: "population estimate records",
				MeasureColumn: "population_estimate",
				Tables:        []string{"occupation_records"},
				Aggregate:     "COUNT",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "Malta", ColumnPhrase: "region"}},
				YearFrom:      1940, YearTo: 1960, TimeColumn: "study_year",
				RoundTo:      -1,
				QuestionText: "What is the count of population estimate records in the Malta region between 1940 and 1960?",
			},
			Answer:         strconv.Itoa(len(rows)),
			RelevantTables: []string{"occupation_records"},
			Tags:           []string{"easy", "count", "temporal"},
		})
	}

	// A4 — dirty numeric column: mass recorded as text with "unknown"
	// entries; requires numeric coercion plus a lenient repair.
	{
		vals := floatsOf(artifacts, rowsWhere(artifacts, eq("period", "Bronze Age"), eq("region", "Malta")), "mass_g")
		ans := mustAgg(vals, "AVG", "A4")
		add(Question{
			ID: "A4", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "catalogued artifacts recovered in the Malta region",
				MeasurePhrase: "mass",
				MeasureColumn: "mass_g",
				Tables:        []string{"artifacts"},
				Aggregate:     "AVG",
				Filters: []llm.FilterSpec{
					{Column: "period", Value: "Bronze Age", ColumnPhrase: "period"},
					{Column: "region", Value: "Malta", ColumnPhrase: "region"},
				},
				RoundTo:      2,
				QuestionText: "What is the average mass of artifacts from the Bronze Age period found in the Malta region? Round your answer to 2 decimal places.",
			},
			Answer:         formatAnswer(ans, 2),
			RelevantTables: []string{"artifacts"},
			Tags:           []string{"dirty-numeric", "repair-loop", "multi-filter"},
		})
	}

	// A5 — the paper's Maltese potassium question: the first/last times come
	// from occupation_records (cross-table temporal anchor), potassium is
	// interpolated within the Malta series of yearly means.
	{
		occRows := rowsWhere(occupation, eq("region", "Malta"))
		years := floatsOf(occupation, occRows, "study_year")
		first := mustAgg(years, "MIN", "A5")
		last := mustAgg(years, "MAX", "A5")
		soilRows := rowsWhere(soil, eq("region", "Malta"))
		ys, ms := yearlyMeans(soil, soilRows, "study_year", "k_ppm")
		xs := make([]float64, len(ys))
		for i, y := range ys {
			xs[i] = float64(y)
		}
		vFirst, err := transform.InterpolateAt(xs, ms, first)
		if err != nil {
			panic(err)
		}
		vLast, err := transform.InterpolateAt(xs, ms, last)
		if err != nil {
			panic(err)
		}
		ans := (vFirst + vLast) / 2
		add(Question{
			ID: "A5", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "historical data from the Maltese region",
				MeasurePhrase: "Potassium in ppm",
				MeasureColumn: "k_ppm",
				Tables:        []string{"soil_samples", "occupation_records"},
				Aggregate:     "AVG",
				Filters:       []llm.FilterSpec{{Value: "Maltese", ColumnPhrase: "area"}},
				FirstLast:     true,
				Interpolate:   true,
				RoundTo:       4,
				QuestionText:  "What is the average Potassium in ppm from the first and last time the study recorded people in the Maltese area? Assume that Potassium is linearly interpolated between samples. Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"soil_samples", "occupation_records"},
			Tags:           []string{"cross-table-anchor", "interpolation", "first-last", "paper-example"},
		})
	}

	// A6 — interpolation inside a filtered series (opaque column name).
	{
		vals, err := interpolateWithin(soil, []pred{eq("region", "Sicily")}, "study_year", "k_ppm", 1920, 1980)
		if err != nil {
			panic(err)
		}
		ans := mustAgg(vals, "AVG", "A6")
		add(Question{
			ID: "A6", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "soil chemistry studies across the Sicily region",
				MeasurePhrase: "Potassium concentration",
				MeasureColumn: "k_ppm",
				Tables:        []string{"soil_samples"},
				Aggregate:     "AVG",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "Sicily", ColumnPhrase: "region"}},
				YearFrom:      1920, YearTo: 1980, TimeColumn: "study_year",
				Interpolate:  true,
				RoundTo:      4,
				QuestionText: "What is the average Potassium concentration for soil samples in the Sicily region between 1920 and 1980? Assume that Potassium is linearly interpolated between samples. Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"soil_samples"},
			Tags:           []string{"interpolation", "opaque-name", "temporal"},
		})
	}

	// A7 — ratio: outside the supported aggregate vocabulary.
	{
		rows := rowsWhere(soil, eq("region", "Malta"))
		pi := soil.Schema.ColumnIndex("p_ppm")
		ni := soil.Schema.ColumnIndex("n_pct")
		var ratios []float64
		for _, row := range rows {
			p, pok := row[pi].AsFloat()
			n, nok := row[ni].AsFloat()
			if pok && nok && n != 0 && !row[pi].IsNull() && !row[ni].IsNull() {
				ratios = append(ratios, p/n)
			}
		}
		ans := mustAgg(ratios, "AVG", "A7")
		add(Question{
			ID: "A7", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "nutrient balance in soil samples from the Malta region",
				MeasurePhrase: "ratio of phosphorus to nitrogen",
				MeasureColumn: "p_ppm",
				Tables:        []string{"soil_samples"},
				Aggregate:     "AVG",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "Malta", ColumnPhrase: "region"}},
				RoundTo:       4,
				QuestionText:  "What is the average ratio of phosphorus to nitrogen in soil samples across the Malta region? Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"soil_samples"},
			Tags:           []string{"derived-ratio", "unsupported-aggregate"},
		})
	}

	// A8 — date-format repair: catalog_date is "Month Day, Year" text with
	// "n.d." entries; the year filter needs parsing plus a lenient repair.
	{
		rows := rowsWhere(artifacts, eq("region", "Gozo"), dateYearBetween("catalog_date", 1960, 1980))
		vals := floatsOf(artifacts, rows, "condition_grade")
		ans := mustAgg(vals, "AVG", "A8")
		add(Question{
			ID: "A8", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "artifact cataloguing history in the Gozo region",
				MeasurePhrase: "condition grade",
				MeasureColumn: "condition_grade",
				Tables:        []string{"artifacts"},
				Aggregate:     "AVG",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "Gozo", ColumnPhrase: "region"}},
				YearFrom:      1960, YearTo: 1980, TimeColumn: "catalog_date",
				RoundTo:      3,
				QuestionText: "What is the average condition grade of artifacts catalogued between 1960 and 1980 in the Gozo region? Round your answer to 3 decimal places.",
			},
			Answer:         formatAnswer(ans, 3),
			RelevantTables: []string{"artifacts"},
			Tags:           []string{"date-repair", "repair-loop", "temporal"},
		})
	}

	// A9 — argmax: the answer is an entity, not a statistic.
	{
		site, _ := argmaxGroup(soil, "site_name", "p_ppm")
		add(Question{
			ID: "A9", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "phosphorus enrichment across excavation sites",
				MeasurePhrase: "average phosphorus concentration",
				MeasureColumn: "p_ppm",
				Tables:        []string{"soil_samples"},
				Aggregate:     "MAX",
				RoundTo:       -1,
				QuestionText:  "Which excavation site has the highest average phosphorus concentration in soil samples? Provide the site name.",
			},
			Answer:         site,
			RelevantTables: []string{"soil_samples"},
			Tags:           []string{"argmax", "entity-answer"},
		})
	}

	// A10 — boolean filter the surface grammar cannot express.
	{
		rows := rowsWhere(radiocarbon, eq("region", "Crete"), boolTrue("reliable"))
		vals := floatsOf(radiocarbon, rows, "delta_c13")
		ans := mustAgg(vals, "STDDEV", "A10")
		add(Question{
			ID: "A10", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "radiocarbon dating results for the Crete region",
				MeasurePhrase: "delta carbon-13 ratio",
				MeasureColumn: "delta_c13",
				Tables:        []string{"radiocarbon_dates"},
				Aggregate:     "STDDEV",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "Crete", ColumnPhrase: "region"}},
				RoundTo:       4,
				QuestionText:  "What is the standard deviation of the delta carbon-13 ratio for reliable radiocarbon dates in the Crete region? Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"radiocarbon_dates"},
			Tags:           []string{"hidden-filter", "stddev"},
		})
	}

	// A11 — cross-table filter with an out-of-range temporal reading: the
	// occupation study years start in 1920, so a "before 1900" filter on
	// the measure table is empty; the intended filter is the sites' own
	// discovery year via a join.
	{
		sites := corpus["excavation_sites"]
		di := sites.Schema.ColumnIndex("discovered_year")
		ni := sites.Schema.ColumnIndex("site_name")
		oldSites := map[string]bool{}
		for _, row := range rowsOf(sites) {
			if row[di].IntVal() < 1900 {
				oldSites[row[ni].StringVal()] = true
			}
		}
		oi := occupation.Schema.ColumnIndex("site_name")
		var rows []table.Row
		for _, row := range rowsOf(occupation) {
			if oldSites[row[oi].StringVal()] && strings.EqualFold(row[occupation.Schema.ColumnIndex("region")].String(), "Malta") {
				rows = append(rows, row)
			}
		}
		vals := floatsOf(occupation, rows, "population_estimate")
		ans := mustAgg(vals, "AVG", "A11")
		add(Question{
			ID: "A11", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "occupation of early-discovered sites in the Malta region",
				MeasurePhrase: "population estimate",
				MeasureColumn: "population_estimate",
				Tables:        []string{"occupation_records", "excavation_sites"},
				JoinTable:     "excavation_sites", JoinKey: "site_name",
				Aggregate:    "AVG",
				Filters:      []llm.FilterSpec{{Column: "region", Value: "Malta", ColumnPhrase: "region"}},
				YearTo:       1900,
				RoundTo:      2,
				QuestionText: "What is the average population estimate recorded at sites discovered before 1900 in the Malta region? Round your answer to 2 decimal places.",
			},
			Answer:         formatAnswer(ans, 2),
			RelevantTables: []string{"occupation_records", "excavation_sites"},
			Tags:           []string{"join", "temporal-misbinding"},
		})
	}

	// A12 — "average annual": mean of yearly means, not row mean.
	{
		rows := rowsWhere(soil, eq("region", "Cyprus"), intBetween("study_year", 1950, 2000))
		_, means := yearlyMeans(soil, rows, "study_year", "n_pct")
		ans := mustAgg(means, "AVG", "A12")
		add(Question{
			ID: "A12", Dataset: "archaeology",
			Need: llm.NeedSpec{
				Topic:         "long-term nitrogen trends in soil from the Cyprus region",
				MeasurePhrase: "annual nitrogen content percentage",
				MeasureColumn: "n_pct",
				Tables:        []string{"soil_samples"},
				Aggregate:     "AVG",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "Cyprus", ColumnPhrase: "region"}},
				YearFrom:      1950, YearTo: 2000, TimeColumn: "study_year",
				RoundTo:      4,
				QuestionText: "What is the average annual nitrogen content percentage for soil samples in the Cyprus region between 1950 and 2000? Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"soil_samples"},
			Tags:           []string{"weighting-semantics", "opaque-name"},
		})
	}

	if len(qs) != 12 {
		panic(fmt.Sprintf("archaeology bank has %d questions, want 12", len(qs)))
	}
	return qs
}

// avoid unused import when math is only used indirectly in some builds.
var _ = math.Pi
