//go:build race

package mf

// raceDetectorEnabled reports whether this test binary was built with -race.
// The training cost gate skips under the race detector: it instruments every
// load and store of the step, so the measured ratio says nothing about the
// trainer.
const raceDetectorEnabled = true
