package pool

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestTeamCoversIndexSpace: every Dispatch generation calls run exactly
// once per index, at every worker count (including workers > n, capped,
// and the inline workers <= 1 path). The static-partition contract means
// the plain int counters need no locking.
func TestTeamCoversIndexSpace(t *testing.T) {
	for _, n := range []int{1, 5, 16, 37} {
		for _, workers := range []int{1, 2, 3, 7, 64} {
			counts := make([]int, n)
			team := NewTeam(n, workers, func(i int) { counts[i]++ })
			const gens = 3
			for g := 0; g < gens; g++ {
				team.Dispatch()
			}
			team.Close()
			for i, c := range counts {
				if c != gens {
					t.Errorf("n=%d workers=%d: index %d ran %d times, want %d",
						n, workers, i, c, gens)
				}
			}
		}
	}
}

// TestTeamManyGenerations hammers the generation handshake: thousands of
// back-to-back dispatches exercise the spin fast path, and the paced
// tail (sleeps longer than any spin window) forces workers to park on
// and wake from the condition variable.
func TestTeamManyGenerations(t *testing.T) {
	var total atomic.Int64
	team := NewTeam(8, 4, func(i int) { total.Add(int64(i) + 1) })
	defer team.Close()
	const fast, paced = 2000, 5
	for g := 0; g < fast; g++ {
		team.Dispatch()
	}
	for g := 0; g < paced; g++ {
		time.Sleep(2 * time.Millisecond) // everyone parks
		team.Dispatch()
	}
	perGen := int64(8 * 9 / 2)
	if got, want := total.Load(), perGen*(fast+paced); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

func TestTeamWorkersResolution(t *testing.T) {
	if got := NewTeam(4, 9, func(int) {}).Workers(); got != 4 {
		t.Errorf("workers capped at n: got %d, want 4", got)
	}
	if got := NewTeam(4, 1, func(int) {}).Workers(); got != 1 {
		t.Errorf("explicit serial: got %d, want 1", got)
	}
	if got := NewTeam(16, 0, func(int) {}).Workers(); got != 1 {
		t.Errorf("workers=0: got %d, want 1 (inline)", got)
	}
}

func TestTeamCloseIdempotentNilSafe(t *testing.T) {
	team := NewTeam(4, 2, func(int) {})
	team.Close()
	team.Close()
	var nilTeam *Team
	nilTeam.Close()
}

func TestTeamDispatchAfterClosePanics(t *testing.T) {
	for _, workers := range []int{1, 3} {
		team := NewTeam(4, workers, func(int) {})
		team.Dispatch()
		team.Close()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: Dispatch after Close did not panic", workers)
				}
			}()
			team.Dispatch()
		}()
	}
}
