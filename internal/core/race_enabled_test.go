//go:build race

package core

// raceDetectorEnabled reports whether this test binary was built with
// -race. The kernel speedup gate skips under the race detector: it
// inflates memory-access costs unevenly, so the measured ratio says nothing
// about production kernel performance.
const raceDetectorEnabled = true
