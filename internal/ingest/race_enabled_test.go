//go:build race

package ingest

// raceDetectorEnabled reports whether this test binary was built with -race.
// The allocation gate skips there: the detector allocates on its own.
const raceDetectorEnabled = true
