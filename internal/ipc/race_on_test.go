//go:build race

package ipc

// raceDetector reports a -race build, in which sync.Pool drops a share of
// what is put back at random: an allocation count then measures those
// drops, not the path.
const raceDetector = true
