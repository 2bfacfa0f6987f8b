//go:build !race

package host

const raceDetector = false
