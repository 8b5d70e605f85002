//go:build race

package main

// raceDetector reports whether the test binary was built with -race, under
// which the numeric loops run about ten times slower.
const raceDetector = true
