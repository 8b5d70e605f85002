//go:build race

package serve

// raceDetectorEnabled reports whether this test binary was built with -race.
// The allocation gate skips there: the detector allocates on its own.
const raceDetectorEnabled = true
