//go:build !race

package ipc

const raceDetector = false
