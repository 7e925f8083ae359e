package kramabench

import (
	"fmt"
	"math/rand"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// Environment dataset shape (Table 1): 36 tables, average 9,199 rows and 10
// columns. Reference tables (stations, rivers, lakes) are small; the 33
// measurement/statistic tables split the remaining rows so the total is
// exactly 36 × 9,199 = 331,164.

const (
	envTables    = 36
	envAvgRows   = 9199
	rowsStations = 250
	rowsRivers   = 180
	rowsLakes    = 120
)

var envRegions = []string{"North Basin", "South Basin", "East Valley", "West Valley", "Central Plain", "Coastal Strip", "Highlands", "Lakelands"}

var stationPrefixes = []string{"Alder", "Birch", "Cedar", "Dune", "Elm", "Fern", "Grove", "Heath", "Iris", "Juniper"}
var stationSuffixes = []string{"Point", "Ridge", "Crossing", "Mill", "Gate", "Hollow", "Bend", "Field"}

// measurementSpec describes one station-keyed measurement table.
type measurementSpec struct {
	name    string
	desc    string
	col     string
	colDesc string
	unit    string
	base    float64
	spread  float64
	nullPct float64
}

// stationSpecs are the station-keyed measurement tables (18).
var stationSpecs = []measurementSpec{
	{"air_pm25", "Air quality readings for fine particulate matter", "pm25_ugm3", "Fine particulate matter (PM2.5) concentration", "ug/m3", 12, 18, 0.05},
	{"air_pm10", "Air quality readings for coarse particulate matter", "pm10_ugm3", "Coarse particulate matter (PM10) concentration", "ug/m3", 22, 26, 0.05},
	{"air_no2", "Air quality readings for nitrogen dioxide", "no2_ugm3", "Nitrogen dioxide concentration", "ug/m3", 18, 22, 0.05},
	{"air_o3", "Air quality readings for ozone", "o3_ugm3", "Ground-level ozone concentration", "ug/m3", 55, 40, 0.05},
	{"air_so2", "Air quality readings for sulphur dioxide", "so2_ugm3", "Sulphur dioxide concentration", "ug/m3", 6, 9, 0.05},
	{"air_co", "Air quality readings for carbon monoxide", "co_mgm3", "Carbon monoxide concentration", "mg/m3", 0.5, 0.8, 0.05},
	{"air_benzene", "Air quality readings for benzene", "c6h6_ugm3", "Benzene concentration", "ug/m3", 1.2, 1.5, 0.08},
	{"water_nitrate", "River and lake water samples analyzed for nitrate", "nitrate_mgl", "Nitrate concentration in water", "mg/L", 4.5, 6, 0.12},
	{"water_phosphate", "Water samples analyzed for phosphate", "po4_mgl", "Phosphate concentration in water", "mg/L", 0.4, 0.7, 0.12},
	{"water_ph", "Water acidity measurements", "ph_level", "Water acidity (pH)", "", 7.4, 1.1, 0.03},
	{"water_oxygen", "Dissolved oxygen measurements in water bodies", "do_mgl", "Dissolved oxygen concentration", "mg/L", 8.5, 3, 0.06},
	{"water_turbidity", "Water clarity measurements", "turb_ntu", "Turbidity (water cloudiness)", "NTU", 9, 14, 0.1},
	{"water_ecoli", "Bacterial contamination counts in water", "ecoli_cfu", "Escherichia coli colony count per 100mL", "CFU", 120, 300, 0.15},
	{"water_temperature", "Water temperature measurements", "wtemp_c", "Water temperature", "C", 13, 9, 0.04},
	{"weather_temperature", "Weather station air temperature normals", "tavg_c", "Average air temperature", "C", 11, 12, 0.02},
	{"weather_precipitation", "Weather station precipitation totals", "precip_mm", "Monthly precipitation total", "mm", 65, 70, 0.02},
	{"weather_wind", "Weather station wind speed observations", "wind_ms", "Mean wind speed", "m/s", 4.2, 3, 0.02},
	{"weather_humidity", "Weather station relative humidity observations", "rh_pct", "Relative humidity percentage", "%", 72, 18, 0.02},
}

// regionSpec describes one region+year statistic table.
type regionSpec struct {
	name    string
	desc    string
	col     string
	colDesc string
	unit    string
	base    float64
	spread  float64
}

// smallRegionTables are annual-granularity statistic tables: 8 regions ×
// 30 years = 240 rows, small enough to fit whole into a 200k context (the
// 3-of-20 env questions the O3 baseline can actually read).
var smallRegionTables = map[string]bool{
	"noise_levels":        true,
	"biodiversity_counts": true,
	"uv_index":            true,
	"coastal_quality":     true,
	"renewable_share":     true,
}

// regionSpecs are the region-keyed statistic tables (15).
var regionSpecs = []regionSpec{
	{"emissions_transport", "Greenhouse gas emissions from the transport sector", "co2_kt", "Carbon dioxide emissions from transport", "kt", 420, 180},
	{"emissions_industry", "Greenhouse gas emissions from industry", "co2eq_kt", "Carbon dioxide equivalent emissions from industry", "kt", 650, 300},
	{"emissions_agriculture", "Greenhouse gas emissions from agriculture", "ch4_t", "Methane emissions from agriculture", "t", 900, 350},
	{"emissions_energy", "Greenhouse gas emissions from energy production", "co2_energy_kt", "Carbon dioxide emissions from energy production", "kt", 1100, 420},
	{"forest_cover", "Forested area statistics", "forest_km2", "Forest cover area", "km2", 340, 160},
	{"recycling_rates", "Municipal recycling statistics", "recy_pct", "Share of municipal waste recycled", "%", 38, 18},
	{"waste_generation", "Municipal waste generation statistics", "waste_kt", "Municipal waste generated", "kt", 210, 90},
	{"energy_consumption", "Energy consumption statistics", "energy_gwh", "Electricity consumed", "GWh", 780, 320},
	{"groundwater_levels", "Aquifer groundwater level observations", "gw_level_m", "Groundwater level below surface", "m", 14, 8},
	{"soil_quality", "Agricultural soil quality index surveys", "sqi", "Soil quality index (0-100)", "", 62, 20},
	{"noise_levels", "Urban noise monitoring aggregates", "noise_db", "Average daytime noise level", "dB", 58, 9},
	{"biodiversity_counts", "Breeding bird survey counts", "species_n", "Distinct bird species observed", "", 74, 28},
	{"uv_index", "Ultraviolet radiation index observations", "uv_idx", "Midday ultraviolet index", "", 4.5, 2.5},
	{"coastal_quality", "Coastal bathing water quality index", "cbq_idx", "Coastal bathing water quality index (0-100)", "", 71, 18},
	{"renewable_share", "Renewable electricity share statistics", "renew_pct", "Share of electricity from renewables", "%", 28, 16},
}

// Environment generates the 36-table environment dataset.
func Environment() map[string]*table.Table {
	rng := rand.New(rand.NewSource(Seed + 1))
	out := make(map[string]*table.Table)

	stationNames := make([]string, rowsStations)
	stationRegions := make([]string, rowsStations)

	// --- stations (250 × 10) ---
	stations := table.New(table.Schema{
		Name:        "stations",
		Description: "Monitoring stations registry with location and type",
		Columns: []table.Column{
			{Name: "station_id", Type: value.KindInt, Description: "Station identifier"},
			{Name: "station_name", Type: value.KindString, Description: "Station name"},
			{Name: "region", Type: value.KindString, Description: "Region the station monitors"},
			{Name: "latitude", Type: value.KindFloat, Description: "Latitude in decimal degrees"},
			{Name: "longitude", Type: value.KindFloat, Description: "Longitude in decimal degrees"},
			{Name: "elevation_m", Type: value.KindFloat, Description: "Elevation above sea level", Unit: "m"},
			{Name: "established_year", Type: value.KindInt, Description: "Year the station was established"},
			{Name: "station_type", Type: value.KindString, Description: "Monitoring domain (air, water, weather)"},
			{Name: "operator", Type: value.KindString, Description: "Operating agency"},
			{Name: "status", Type: value.KindString, Description: "Operational status"},
		},
	})
	operators := []string{"EnvAgency", "RegionalEPA", "HydroMet", "UniLab"}
	stTypes := []string{"air", "water", "weather"}
	for i := 0; i < rowsStations; i++ {
		name := fmt.Sprintf("%s %s",
			stationPrefixes[i%len(stationPrefixes)],
			stationSuffixes[(i/len(stationPrefixes))%len(stationSuffixes)])
		if i >= len(stationPrefixes)*len(stationSuffixes) {
			name = fmt.Sprintf("%s %d", name, i)
		}
		region := envRegions[i%len(envRegions)]
		stationNames[i] = name
		stationRegions[i] = region
		stations.MustAppend(table.Row{
			value.Int(int64(i + 1)),
			value.String(name),
			value.String(region),
			value.Float(46 + rng.Float64()*6),
			value.Float(4 + rng.Float64()*12),
			value.Float(rng.Float64() * 900),
			value.Int(int64(1950 + rng.Intn(70))),
			value.String(stTypes[i%3]),
			value.String(operators[rng.Intn(len(operators))]),
			value.String([]string{"operational", "maintenance", "decommissioned"}[rng.Intn(3)]),
		})
	}
	out[stations.Schema.Name] = stations

	// --- rivers (180 × 10) ---
	rivers := table.New(table.Schema{
		Name:        "rivers",
		Description: "River registry with length and basin characteristics",
		Columns: []table.Column{
			{Name: "river_id", Type: value.KindInt, Description: "River identifier"},
			{Name: "river_name", Type: value.KindString, Description: "River name"},
			{Name: "region", Type: value.KindString, Description: "Primary region the river flows through"},
			{Name: "length_km", Type: value.KindFloat, Description: "River length", Unit: "km"},
			{Name: "basin_km2", Type: value.KindFloat, Description: "Drainage basin area", Unit: "km2"},
			{Name: "avg_flow_m3s", Type: value.KindFloat, Description: "Average discharge", Unit: "m3/s"},
			{Name: "source_elev_m", Type: value.KindFloat, Description: "Source elevation", Unit: "m"},
			{Name: "mouth", Type: value.KindString, Description: "Water body the river empties into"},
			{Name: "navigable", Type: value.KindBool, Description: "Whether commercially navigable"},
			{Name: "protected", Type: value.KindBool, Description: "Whether under environmental protection"},
		},
	})
	riverNames := []string{"Aire", "Brent", "Clyde", "Derwent", "Eden", "Frome", "Goyt", "Hull", "Irwell", "Kennet"}
	mouths := []string{"North Sea", "Lake Grand", "Bay of Reeds", "River Main"}
	for i := 0; i < rowsRivers; i++ {
		rivers.MustAppend(table.Row{
			value.Int(int64(i + 1)),
			value.String(fmt.Sprintf("%s %d", riverNames[i%len(riverNames)], i/len(riverNames)+1)),
			value.String(envRegions[i%len(envRegions)]),
			value.Float(10 + rng.Float64()*400),
			value.Float(50 + rng.Float64()*8000),
			value.Float(1 + rng.Float64()*220),
			value.Float(100 + rng.Float64()*2400),
			value.String(mouths[rng.Intn(len(mouths))]),
			value.Bool(rng.Float64() < 0.3),
			value.Bool(rng.Float64() < 0.4),
		})
	}
	out[rivers.Schema.Name] = rivers

	// --- lakes (120 × 10) ---
	lakes := table.New(table.Schema{
		Name:        "lakes",
		Description: "Lake registry with surface and depth characteristics",
		Columns: []table.Column{
			{Name: "lake_id", Type: value.KindInt, Description: "Lake identifier"},
			{Name: "lake_name", Type: value.KindString, Description: "Lake name"},
			{Name: "region", Type: value.KindString, Description: "Region of the lake"},
			{Name: "surface_km2", Type: value.KindFloat, Description: "Surface area", Unit: "km2"},
			{Name: "max_depth_m", Type: value.KindFloat, Description: "Maximum depth", Unit: "m"},
			{Name: "volume_mcm", Type: value.KindFloat, Description: "Volume in million cubic meters", Unit: "mcm"},
			{Name: "trophic_state", Type: value.KindString, Description: "Trophic classification"},
			{Name: "inflows", Type: value.KindInt, Description: "Number of inflowing rivers"},
			{Name: "artificial", Type: value.KindBool, Description: "Whether the lake is a reservoir"},
			{Name: "bathing_allowed", Type: value.KindBool, Description: "Whether bathing is permitted"},
		},
	})
	lakeNames := []string{"Grand", "Mirror", "Stone", "Willow", "Crescent", "Osprey"}
	trophic := []string{"oligotrophic", "mesotrophic", "eutrophic"}
	for i := 0; i < rowsLakes; i++ {
		lakes.MustAppend(table.Row{
			value.Int(int64(i + 1)),
			value.String(fmt.Sprintf("Lake %s %d", lakeNames[i%len(lakeNames)], i/len(lakeNames)+1)),
			value.String(envRegions[i%len(envRegions)]),
			value.Float(0.2 + rng.Float64()*90),
			value.Float(2 + rng.Float64()*120),
			value.Float(1 + rng.Float64()*4000),
			value.String(trophic[rng.Intn(len(trophic))]),
			value.Int(int64(rng.Intn(8))),
			value.Bool(rng.Float64() < 0.25),
			value.Bool(rng.Float64() < 0.55),
		})
	}
	out[lakes.Schema.Name] = lakes

	// Distribute the remaining rows so the dataset total is exactly
	// envTables × envAvgRows: small annual tables get 8 regions × 30 years
	// = 240 rows; the other generated tables split the rest evenly.
	const smallRows = 240
	remaining := envTables*envAvgRows - rowsStations - rowsRivers - rowsLakes - smallRows*len(smallRegionTables)
	genTables := len(stationSpecs) + len(regionSpecs) - len(smallRegionTables)
	per := remaining / genTables
	extra := remaining - per*genTables

	// --- station-keyed measurement tables (10 cols each) ---
	for si, spec := range stationSpecs {
		n := per
		if si == 0 {
			n += extra
		}
		t := table.New(table.Schema{
			Name:        spec.name,
			Description: spec.desc,
			Columns: []table.Column{
				{Name: "reading_id", Type: value.KindInt, Description: "Reading identifier"},
				{Name: "station_id", Type: value.KindInt, Description: "Station that produced the reading"},
				{Name: "year", Type: value.KindInt, Description: "Year of the reading"},
				{Name: "month", Type: value.KindInt, Description: "Month of the reading"},
				{Name: spec.col, Type: value.KindFloat, Description: spec.colDesc, Unit: spec.unit},
				{Name: "sensor_code", Type: value.KindString, Description: "Sensor code"},
				{Name: "qc_flag", Type: value.KindString, Description: "Quality-control flag"},
				{Name: "validated", Type: value.KindBool, Description: "Whether the reading passed validation"},
				{Name: "instrument_model", Type: value.KindString, Description: "Instrument make and model"},
				{Name: "sampling_protocol", Type: value.KindString, Description: "Sampling protocol applied"},
			},
		})
		rngT := rand.New(rand.NewSource(Seed + int64(100+si)))
		for i := 0; i < n; i++ {
			stIdx := rngT.Intn(rowsStations)
			year := 1990 + rngT.Intn(35)
			v := value.Null()
			if rngT.Float64() >= spec.nullPct {
				// Regional signal + mild yearly trend keeps aggregates
				// meaningfully different across filters.
				regionBias := float64(stIdx%len(envRegions)) * spec.spread * 0.08
				val := spec.base + regionBias + 0.01*spec.base*float64(year-1990) + rngT.NormFloat64()*spec.spread*0.3
				if val < 0 {
					val = 0
				}
				v = value.Float(val)
			}
			t.MustAppend(table.Row{
				value.Int(int64(i + 1)),
				value.Int(int64(stIdx + 1)),
				value.Int(int64(year)),
				value.Int(int64(1 + rngT.Intn(12))),
				v,
				value.String(fmt.Sprintf("SN-%03d", rngT.Intn(400))),
				value.String([]string{"ok", "ok", "ok", "suspect"}[rngT.Intn(4)]),
				value.Bool(rngT.Float64() < 0.92),
				value.String([]string{"Beta Instruments GX-200", "HydroSense Mark IV", "AeroTrack 5000 Series", "EnviroScan Pro 12"}[rngT.Intn(4)]),
				value.String([]string{"monthly grab sample", "continuous automated logging", "weekly composite sample"}[rngT.Intn(3)]),
			})
		}
		out[t.Schema.Name] = t
	}

	// --- region-keyed statistic tables (10 cols each) ---
	citations := []string{
		"National Environmental Statistics Yearbook",
		"Regional Monitoring Bulletin Series B",
		"State of the Environment Annual Report",
		"Inter-Agency Compendium of Indicators",
	}
	for ri, spec := range regionSpecs {
		n := per
		if smallRegionTables[spec.name] {
			n = smallRows
		}
		t := table.New(table.Schema{
			Name:        spec.name,
			Description: spec.desc,
			Columns: []table.Column{
				{Name: "stat_id", Type: value.KindInt, Description: "Statistic identifier"},
				{Name: "region", Type: value.KindString, Description: "Region the statistic covers"},
				{Name: "year", Type: value.KindInt, Description: "Reporting year"},
				{Name: spec.col, Type: value.KindFloat, Description: spec.colDesc, Unit: spec.unit},
				{Name: "methodology", Type: value.KindString, Description: "Estimation methodology"},
				{Name: "reported_by", Type: value.KindString, Description: "Reporting agency"},
				{Name: "revision", Type: value.KindInt, Description: "Revision number"},
				{Name: "provisional", Type: value.KindBool, Description: "Whether the figure is provisional"},
				{Name: "coverage_pct", Type: value.KindFloat, Description: "Share of region covered by the estimate", Unit: "%"},
				{Name: "source_citation", Type: value.KindString, Description: "Published source of the figure"},
			},
		})
		rngT := rand.New(rand.NewSource(Seed + int64(200+ri)))
		for i := 0; i < n; i++ {
			var region string
			var year int
			if smallRegionTables[spec.name] {
				// Exactly one row per region-year, 1995-2024.
				region = envRegions[i%len(envRegions)]
				year = 1995 + i/len(envRegions)
			} else {
				region = envRegions[i%len(envRegions)]
				year = 1995 + rngT.Intn(30)
			}
			regionBias := float64(indexOf(envRegions, region)) * spec.spread * 0.1
			val := spec.base + regionBias - 0.004*spec.base*float64(year-1995) + rngT.NormFloat64()*spec.spread*0.25
			if val < 0 {
				val = 0
			}
			t.MustAppend(table.Row{
				value.Int(int64(i + 1)),
				value.String(region),
				value.Int(int64(year)),
				value.Float(val),
				value.String([]string{"survey", "model", "census"}[rngT.Intn(3)]),
				value.String(operators[rngT.Intn(len(operators))]),
				value.Int(int64(rngT.Intn(3))),
				value.Bool(rngT.Float64() < 0.15),
				value.Float(60 + rngT.Float64()*40),
				value.String(citations[rngT.Intn(len(citations))]),
			})
		}
		out[t.Schema.Name] = t
	}
	return exact(out)
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}
