//go:build race

package query

// raceDetector reports a -race build, whose sync.Pool drops a share of what
// it is given: an allocation count that reuses pooled scratch varies.
const raceDetector = true
