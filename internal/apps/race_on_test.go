//go:build race

package apps

// raceDetector reports a -race build, in which sync.Pool drops a share of
// what is put back at random: an allocation figure then measures those
// drops, not the path.
const raceDetector = true
