//go:build race

package pktq

// See race_off_test.go.
const raceEnabled = true
