//go:build !race

// Package racebuild reports whether the binary was built with -race. The
// race detector's instrumentation changes allocation counts, so the
// testing.AllocsPerRun budget tests skip their assertions under it.
package racebuild

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
