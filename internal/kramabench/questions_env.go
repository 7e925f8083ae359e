package kramabench

import (
	"fmt"
	"strconv"

	"pneuma/internal/llm"
	"pneuma/internal/table"
	"pneuma/internal/transform"
)

// EnvironmentQuestions builds the 20 environment questions with oracle
// answers computed from the corpus.
func EnvironmentQuestions(corpus map[string]*table.Table) []Question {
	stations := corpus["stations"]

	var qs []Question
	add := func(q Question) { qs = append(qs, q) }

	// stationRows filters a measurement table to one named station.
	stationRows := func(meas *table.Table, name string) []table.Row {
		id := stationIDByName(stations, name)
		mi := meas.Schema.ColumnIndex("station_id")
		var out []table.Row
		for _, row := range rowsOf(meas) {
			if row[mi].IntVal() == id {
				out = append(out, row)
			}
		}
		return out
	}

	// E1 — join measurement table with stations by station name.
	{
		t := corpus["air_pm25"]
		vals := floatsOf(t, stationRows(t, "Alder Point"), "pm25_ugm3")
		ans := mustAgg(vals, "AVG", "E1")
		add(Question{
			ID: "E1", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "air quality monitoring around the Alder Point station",
				MeasurePhrase: "fine particulate matter concentration",
				MeasureColumn: "pm25_ugm3",
				Tables:        []string{"air_pm25", "stations"},
				JoinTable:     "stations", JoinKey: "station_id",
				Aggregate:    "AVG",
				Filters:      []llm.FilterSpec{{Column: "station_name", Value: "Alder Point", ColumnPhrase: "station"}},
				RoundTo:      3,
				QuestionText: "What is the average fine particulate matter concentration at the Alder Point station? Round your answer to 3 decimal places.",
			},
			Answer:         formatAnswer(ans, 3),
			RelevantTables: []string{"air_pm25", "stations"},
			Tags:           []string{"join", "opaque-name"},
		})
	}

	// E2 — year-scoped average, no join.
	{
		t := corpus["air_pm25"]
		vals := floatsOf(t, rowsWhere(t, intBetween("year", 2015, 2015)), "pm25_ugm3")
		ans := mustAgg(vals, "AVG", "E2")
		add(Question{
			ID: "E2", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "regional air quality trends for particulate matter",
				MeasurePhrase: "fine particulate matter concentration",
				MeasureColumn: "pm25_ugm3",
				Tables:        []string{"air_pm25"},
				Aggregate:     "AVG",
				YearFrom:      2015, YearTo: 2015, TimeColumn: "year",
				RoundTo:      3,
				QuestionText: "What is the average fine particulate matter concentration across all stations in 2015? Round your answer to 3 decimal places.",
			},
			Answer:         formatAnswer(ans, 3),
			RelevantTables: []string{"air_pm25"},
			Tags:           []string{"temporal", "opaque-name"},
		})
	}

	// E3-E6 — transparent-name regional statistics (the easy tier every
	// baseline can ground).
	easyRegional := []struct {
		id, tbl, col, phrase, region, question string
		from, to                               int
		agg                                    string
		round                                  int
		topic                                  string
	}{
		{"E3", "forest_cover", "forest_km2", "forest cover area", "Lakelands",
			"What is the average forest cover area in the Lakelands region in 2010? Round your answer to 3 decimal places.",
			2010, 2010, "AVG", 3, "forest cover statistics across the Lakelands region"},
		{"E4", "waste_generation", "waste_kt", "municipal waste generated", "Coastal Strip",
			"What is the average municipal waste generated in the Coastal Strip region between 2000 and 2010? Round your answer to 3 decimal places.",
			2000, 2010, "AVG", 3, "municipal waste statistics for the Coastal Strip region"},
		{"E5", "noise_levels", "noise_db", "daytime noise level", "Central Plain",
			"What is the average daytime noise level in the Central Plain region? Round your answer to 3 decimal places.",
			0, 0, "AVG", 3, "urban noise monitoring in the Central Plain region"},
		{"E6", "biodiversity_counts", "species_n", "bird species observed", "Highlands",
			"What is the maximum of bird species observed in the Highlands region in any survey? Round your answer to 0 decimal places.",
			0, 0, "MAX", 0, "bird survey records across the Highlands region"},
	}
	for _, e := range easyRegional {
		t := corpus[e.tbl]
		preds := []pred{eq("region", e.region)}
		if e.from != 0 {
			preds = append(preds, intBetween("year", e.from, e.to))
		}
		vals := floatsOf(t, rowsWhere(t, preds...), e.col)
		ans := mustAgg(vals, e.agg, e.id)
		need := llm.NeedSpec{
			Topic:         e.topic,
			MeasurePhrase: e.phrase,
			MeasureColumn: e.col,
			Tables:        []string{e.tbl},
			Aggregate:     e.agg,
			Filters:       []llm.FilterSpec{{Column: "region", Value: e.region, ColumnPhrase: "region"}},
			RoundTo:       e.round,
			QuestionText:  e.question,
		}
		if e.from != 0 {
			need.YearFrom, need.YearTo, need.TimeColumn = e.from, e.to, "year"
		}
		add(Question{
			ID: e.id, Dataset: "environment", Need: need,
			Answer:         formatAnswer(ans, e.round),
			RelevantTables: []string{e.tbl},
			Tags:           []string{"easy", "transparent-name"},
		})
	}

	// E7-E9, E11 — opaque physical names that need description grounding,
	// with region or station joins.
	{
		t := corpus["water_phosphate"]
		vals := floatsOf(t, joinedRegionRows(t, stations, "Coastal Strip"), "po4_mgl")
		ans := mustAgg(vals, "AVG", "E7")
		add(Question{
			ID: "E7", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "water quality sampling from stations in the Coastal Strip region",
				MeasurePhrase: "phosphate concentration",
				MeasureColumn: "po4_mgl",
				Tables:        []string{"water_phosphate", "stations"},
				JoinTable:     "stations", JoinKey: "station_id",
				Aggregate:    "AVG",
				Filters:      []llm.FilterSpec{{Column: "region", Value: "Coastal Strip", ColumnPhrase: "region"}},
				RoundTo:      4,
				QuestionText: "What is the average phosphate concentration in water samples from the Coastal Strip region? Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"water_phosphate", "stations"},
			Tags:           []string{"join", "opaque-name"},
		})
	}
	{
		t := corpus["water_oxygen"]
		rows := joinedRegionRows(t, stations, "North Basin")
		sub := table.FromRows(t.Schema, rows)
		vals := floatsOf(sub, rowsWhere(sub, intBetween("year", 2000, 2020)), "do_mgl")
		ans := mustAgg(vals, "AVG", "E8")
		add(Question{
			ID: "E8", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "dissolved oxygen monitoring of water bodies in the North Basin region",
				MeasurePhrase: "dissolved oxygen concentration",
				MeasureColumn: "do_mgl",
				Tables:        []string{"water_oxygen", "stations"},
				JoinTable:     "stations", JoinKey: "station_id",
				Aggregate: "AVG",
				Filters:   []llm.FilterSpec{{Column: "region", Value: "North Basin", ColumnPhrase: "region"}},
				YearFrom:  2000, YearTo: 2020, TimeColumn: "year",
				RoundTo:      4,
				QuestionText: "What is the average dissolved oxygen concentration in the North Basin region between 2000 and 2020? Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"water_oxygen", "stations"},
			Tags:           []string{"join", "temporal", "opaque-name"},
		})
	}
	{
		t := corpus["air_o3"]
		vals := floatsOf(t, stationRows(t, "Cedar Point"), "o3_ugm3")
		ans := mustAgg(vals, "MAX", "E9")
		add(Question{
			ID: "E9", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "ozone pollution episodes around the Cedar Point station",
				MeasurePhrase: "ground-level ozone concentration",
				MeasureColumn: "o3_ugm3",
				Tables:        []string{"air_o3", "stations"},
				JoinTable:     "stations", JoinKey: "station_id",
				Aggregate:    "MAX",
				Filters:      []llm.FilterSpec{{Column: "station_name", Value: "Cedar Point", ColumnPhrase: "station"}},
				RoundTo:      3,
				QuestionText: "What is the maximum ground-level ozone concentration recorded at the Cedar Point station? Round your answer to 3 decimal places.",
			},
			Answer:         formatAnswer(ans, 3),
			RelevantTables: []string{"air_o3", "stations"},
			Tags:           []string{"join", "opaque-name", "max"},
		})
	}

	// E10 — disambiguated emissions phrase.
	{
		t := corpus["emissions_transport"]
		vals := floatsOf(t, rowsWhere(t, eq("region", "West Valley"), intBetween("year", 2005, 2015)), "co2_kt")
		ans := mustAgg(vals, "SUM", "E10")
		add(Question{
			ID: "E10", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "transport sector emissions in the West Valley region",
				MeasurePhrase: "transport carbon dioxide emissions",
				MeasureColumn: "co2_kt",
				Tables:        []string{"emissions_transport"},
				Aggregate:     "SUM",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "West Valley", ColumnPhrase: "region"}},
				YearFrom:      2005, YearTo: 2015, TimeColumn: "year",
				RoundTo:      2,
				QuestionText: "What is the total transport carbon dioxide emissions in the West Valley region between 2005 and 2015? Round your answer to 2 decimal places.",
			},
			Answer:         formatAnswer(ans, 2),
			RelevantTables: []string{"emissions_transport"},
			Tags:           []string{"sum", "temporal", "near-ambiguous"},
		})
	}

	// E11 — station join with a year range.
	{
		t := corpus["weather_humidity"]
		rows := stationRows(t, "Dune Point")
		sub := table.FromRows(t.Schema, rows)
		vals := floatsOf(sub, rowsWhere(sub, intBetween("year", 1995, 2005)), "rh_pct")
		ans := mustAgg(vals, "AVG", "E11")
		add(Question{
			ID: "E11", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "weather observations at the Dune Point station",
				MeasurePhrase: "relative humidity",
				MeasureColumn: "rh_pct",
				Tables:        []string{"weather_humidity", "stations"},
				JoinTable:     "stations", JoinKey: "station_id",
				Aggregate: "AVG",
				Filters:   []llm.FilterSpec{{Column: "station_name", Value: "Dune Point", ColumnPhrase: "station"}},
				YearFrom:  1995, YearTo: 2005, TimeColumn: "year",
				RoundTo:      3,
				QuestionText: "What is the average relative humidity recorded at the Dune Point station between 1995 and 2005? Round your answer to 3 decimal places.",
			},
			Answer:         formatAnswer(ans, 3),
			RelevantTables: []string{"weather_humidity", "stations"},
			Tags:           []string{"join", "temporal"},
		})
	}

	// E12 — interpolation within the station's own series (intended) vs a
	// global interpolation (the plausible system reading).
	{
		t := corpus["water_nitrate"]
		id := stationIDByName(stations, "Elm Point")
		vals, err := interpolateWithin(t, []pred{func(tt *table.Table, row table.Row) bool {
			return row[tt.Schema.ColumnIndex("station_id")].IntVal() == id
		}}, "year", "nitrate_mgl", 0, 0)
		if err != nil {
			panic(err)
		}
		ans := mustAgg(vals, "AVG", "E12")
		add(Question{
			ID: "E12", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "nitrate pollution at the Elm Point station",
				MeasurePhrase: "nitrate concentration",
				MeasureColumn: "nitrate_mgl",
				Tables:        []string{"water_nitrate", "stations"},
				JoinTable:     "stations", JoinKey: "station_id",
				Aggregate:    "AVG",
				Filters:      []llm.FilterSpec{{Column: "station_name", Value: "Elm Point", ColumnPhrase: "station"}},
				Interpolate:  true,
				RoundTo:      4,
				QuestionText: "What is the average nitrate concentration in water at the Elm Point station? Assume that nitrate is linearly interpolated between samples. Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"water_nitrate", "stations"},
			Tags:           []string{"interpolation", "scope-semantics"},
		})
	}

	// E13 — first/last with month-level ordering the surface query loses.
	{
		t := corpus["air_so2"]
		id := stationIDByName(stations, "Fern Point")
		rows := stationRows(t, "Fern Point")
		_ = id
		// Intended: order by (year, month), interpolate the series, take
		// the first and last values.
		type obs struct {
			key  float64
			val  float64
			null bool
		}
		yi := t.Schema.ColumnIndex("year")
		mi := t.Schema.ColumnIndex("month")
		ci := t.Schema.ColumnIndex("so2_ugm3")
		var series []obs
		for _, row := range rows {
			key := row[yi].FloatVal()*12 + row[mi].FloatVal()
			if row[ci].IsNull() {
				series = append(series, obs{key: key, null: true})
			} else {
				series = append(series, obs{key: key, val: row[ci].FloatVal()})
			}
		}
		var xs, ys []float64
		for _, o := range series {
			if !o.null {
				xs = append(xs, o.key)
				ys = append(ys, o.val)
			}
		}
		minKey, maxKey := series[0].key, series[0].key
		for _, o := range series {
			if o.key < minKey {
				minKey = o.key
			}
			if o.key > maxKey {
				maxKey = o.key
			}
		}
		vFirst, err := transform.InterpolateAt(xs, ys, minKey)
		if err != nil {
			panic(err)
		}
		vLast, err := transform.InterpolateAt(xs, ys, maxKey)
		if err != nil {
			panic(err)
		}
		ans := (vFirst + vLast) / 2
		add(Question{
			ID: "E13", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "long-term sulphur dioxide record at the Fern Point station",
				MeasurePhrase: "sulphur dioxide concentration",
				MeasureColumn: "so2_ugm3",
				Tables:        []string{"air_so2", "stations"},
				JoinTable:     "stations", JoinKey: "station_id",
				Aggregate: "AVG",
				Filters:   []llm.FilterSpec{{Column: "station_name", Value: "Fern Point", ColumnPhrase: "station"}},
				FirstLast: true, Interpolate: true,
				RoundTo:      4,
				QuestionText: "What is the average sulphur dioxide concentration from the first and last recorded readings at the Fern Point station? Assume values are linearly interpolated between readings. Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"air_so2", "stations"},
			Tags:           []string{"first-last", "interpolation", "ordering-semantics"},
		})
	}

	// E14 — ratio across two tables: unsupported aggregate vocabulary.
	{
		rec := corpus["recycling_rates"]
		waste := corpus["waste_generation"]
		rvals := floatsOf(rec, rowsWhere(rec, eq("region", "East Valley")), "recy_pct")
		if len(floatsOf(waste, rowsWhere(waste, eq("region", "East Valley")), "waste_kt")) == 0 {
			panic("E14: no waste data for East Valley")
		}
		// Recycled kt / generated kt per year reduces to the recycling
		// percentage expressed as a ratio.
		rmean := mustAgg(rvals, "AVG", "E14")
		ans := rmean / 100
		add(Question{
			ID: "E14", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "waste management performance in the East Valley region",
				MeasurePhrase: "ratio of recycled waste to generated waste",
				MeasureColumn: "recy_pct",
				Tables:        []string{"recycling_rates", "waste_generation"},
				Aggregate:     "AVG",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "East Valley", ColumnPhrase: "region"}},
				RoundTo:       4,
				QuestionText:  "What is the average ratio of recycled waste to generated waste across the East Valley region? Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"recycling_rates", "waste_generation"},
			Tags:           []string{"derived-ratio", "unsupported-aggregate", "multi-table"},
		})
	}

	// E15 — argmax over regions.
	{
		t := corpus["emissions_industry"]
		region, _ := argmaxGroup(t, "region", "co2eq_kt")
		add(Question{
			ID: "E15", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "industrial emissions compared across regions",
				MeasurePhrase: "industry carbon dioxide equivalent emissions",
				MeasureColumn: "co2eq_kt",
				Tables:        []string{"emissions_industry"},
				Aggregate:     "MAX",
				RoundTo:       -1,
				QuestionText:  "Which region has the highest industry carbon dioxide equivalent emissions on average? Provide the region name.",
			},
			Answer:         region,
			RelevantTables: []string{"emissions_industry"},
			Tags:           []string{"argmax", "entity-answer"},
		})
	}

	// E16 — "average annual": mean of yearly means.
	{
		t := corpus["energy_consumption"]
		rows := rowsWhere(t, eq("region", "South Basin"), intBetween("year", 2000, 2020))
		_, means := yearlyMeans(t, rows, "year", "energy_gwh")
		ans := mustAgg(means, "AVG", "E16")
		add(Question{
			ID: "E16", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "electricity consumption trends in the South Basin region",
				MeasurePhrase: "annual electricity consumed",
				MeasureColumn: "energy_gwh",
				Tables:        []string{"energy_consumption"},
				Aggregate:     "AVG",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "South Basin", ColumnPhrase: "region"}},
				YearFrom:      2000, YearTo: 2020, TimeColumn: "year",
				RoundTo:      2,
				QuestionText: "What is the average annual electricity consumed in the South Basin region between 2000 and 2020? Round your answer to 2 decimal places.",
			},
			Answer:         formatAnswer(ans, 2),
			RelevantTables: []string{"energy_consumption"},
			Tags:           []string{"weighting-semantics"},
		})
	}

	// E17 — boolean filter the surface grammar cannot express.
	{
		t := corpus["air_co"]
		id := stationIDByName(stations, "Grove Point")
		rows := rowsWhere(t, func(tt *table.Table, row table.Row) bool {
			return row[tt.Schema.ColumnIndex("station_id")].IntVal() == id
		}, boolTrue("validated"))
		vals := floatsOf(t, rows, "co_mgm3")
		ans := mustAgg(vals, "AVG", "E17")
		add(Question{
			ID: "E17", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "carbon monoxide measurements at the Grove Point station",
				MeasurePhrase: "carbon monoxide concentration",
				MeasureColumn: "co_mgm3",
				Tables:        []string{"air_co", "stations"},
				JoinTable:     "stations", JoinKey: "station_id",
				Aggregate:    "AVG",
				Filters:      []llm.FilterSpec{{Column: "station_name", Value: "Grove Point", ColumnPhrase: "station"}},
				RoundTo:      4,
				QuestionText: "What is the average carbon monoxide concentration among validated readings at the Grove Point station? Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"air_co", "stations"},
			Tags:           []string{"hidden-filter"},
		})
	}

	// E18 — month filter outside the surface grammar.
	{
		t := corpus["water_turbidity"]
		rows := rowsWhere(t, func(tt *table.Table, row table.Row) bool {
			m := row[tt.Schema.ColumnIndex("month")].IntVal()
			return m == 12 || m == 1 || m == 2
		})
		vals := floatsOf(t, rows, "turb_ntu")
		ans := mustAgg(vals, "MEDIAN", "E18")
		add(Question{
			ID: "E18", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "seasonal water clarity patterns across monitoring stations",
				MeasurePhrase: "turbidity",
				MeasureColumn: "turb_ntu",
				Tables:        []string{"water_turbidity"},
				Aggregate:     "MEDIAN",
				RoundTo:       3,
				QuestionText:  "What is the median turbidity in water bodies during the winter months of December through February? Round your answer to 3 decimal places.",
			},
			Answer:         formatAnswer(ans, 3),
			RelevantTables: []string{"water_turbidity"},
			Tags:           []string{"seasonal-filter", "median"},
		})
	}

	// E19 — year-over-year change: outside the aggregate vocabulary.
	{
		t := corpus["groundwater_levels"]
		rows := rowsWhere(t, eq("region", "Highlands"))
		_, means := yearlyMeans(t, rows, "year", "gw_level_m")
		var diffs []float64
		for i := 1; i < len(means); i++ {
			diffs = append(diffs, means[i]-means[i-1])
		}
		ans := mustAgg(diffs, "AVG", "E19")
		add(Question{
			ID: "E19", Dataset: "environment",
			Need: llm.NeedSpec{
				Topic:         "aquifer depletion in the Highlands region",
				MeasurePhrase: "year-over-year change in groundwater level",
				MeasureColumn: "gw_level_m",
				Tables:        []string{"groundwater_levels"},
				Aggregate:     "AVG",
				Filters:       []llm.FilterSpec{{Column: "region", Value: "Highlands", ColumnPhrase: "region"}},
				RoundTo:       4,
				QuestionText:  "What is the average year-over-year change in groundwater level across the Highlands region? Round your answer to 4 decimal places.",
			},
			Answer:         formatAnswer(ans, 4),
			RelevantTables: []string{"groundwater_levels"},
			Tags:           []string{"derived-delta", "unsupported-aggregate"},
		})
	}

	// E20 — data gap: the coastal index starts in 1995, the question asks
	// about 1992 (§3.2's grounding-gap scenario).
	add(Question{
		ID: "E20", Dataset: "environment",
		Need: llm.NeedSpec{
			Topic:         "historical coastal bathing water quality in the North Basin region",
			MeasurePhrase: "coastal bathing water quality index",
			MeasureColumn: "cbq_idx",
			Tables:        []string{"coastal_quality"},
			Aggregate:     "AVG",
			Filters:       []llm.FilterSpec{{Column: "region", Value: "North Basin", ColumnPhrase: "region"}},
			YearFrom:      1992, YearTo: 1992, TimeColumn: "year",
			RoundTo:      2,
			QuestionText: "What is the average coastal bathing water quality index in the North Basin region in 1992? Round your answer to 2 decimal places.",
		},
		Answer:         "no data for 1992 (records begin in 1995)",
		RelevantTables: []string{"coastal_quality"},
		Tags:           []string{"data-gap"},
	})

	if len(qs) != 20 {
		panic(fmt.Sprintf("environment bank has %d questions, want 20", len(qs)))
	}
	return qs
}

var _ = strconv.Itoa
