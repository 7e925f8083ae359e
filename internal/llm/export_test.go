package llm

// MostlyNumericSamples exposes mostlyNumericSamples to the external tests,
// which read the kramabench corpora (kramabench imports llm).
var MostlyNumericSamples = mostlyNumericSamples
