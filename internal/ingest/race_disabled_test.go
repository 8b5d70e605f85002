//go:build !race

package ingest

// raceDetectorEnabled reports whether this test binary was built with -race;
// see race_enabled_test.go.
const raceDetectorEnabled = false
