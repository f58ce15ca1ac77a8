//go:build !race

package pktq

// raceEnabled reports whether the race detector instruments this build.
// Allocation counts are only meaningful without it, so TestQueueZeroAllocs
// skips itself under `go test -race`.
const raceEnabled = false
