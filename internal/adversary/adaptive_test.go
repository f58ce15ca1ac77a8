package adversary

import (
	"testing"

	"earmac/internal/mac"
)

func TestMaxQueueFollowsLongestQueue(t *testing.T) {
	a := NewMaxQueue(4, T(1, 1, 1))
	a.ObserveQueues(0, []int{0, 5, 2, 1})
	injs := a.InjectAppend(1, nil)
	if len(injs) == 0 {
		t.Fatal("no injections")
	}
	for _, in := range injs {
		if in.Station != 1 {
			t.Errorf("MaxQueue injected into %d, want 1", in.Station)
		}
		if in.Dest == 1 {
			t.Error("MaxQueue addressed the target itself")
		}
	}
	// Retarget when another queue overtakes (ties → smallest name).
	a.ObserveQueues(1, []int{7, 7, 2, 9})
	injs = a.InjectAppend(2, nil)
	for _, in := range injs {
		if in.Station != 3 {
			t.Errorf("MaxQueue injected into %d, want 3", in.Station)
		}
	}
}

func TestMaxQueueRespectsRate(t *testing.T) {
	a := NewMaxQueue(3, T(1, 2, 1))
	total := 0
	for r := int64(0); r < 100; r++ {
		total += len(a.InjectAppend(r, nil))
		a.ObserveQueues(r, []int{1, 2, 3})
	}
	if total > 51 { // ρ·100 + β
		t.Errorf("injected %d > ρt+β", total)
	}
}

func TestAntiTokenTracksRing(t *testing.T) {
	a := NewAntiToken(4, T(1, 1, 1))
	// Initially the token sits at 0; target is its predecessor 3.
	injs := a.InjectAppend(0, nil)
	for _, in := range injs {
		if in.Station != 3 {
			t.Errorf("initial target %d, want 3", in.Station)
		}
	}
	// A heard round keeps the token; a silent round advances it, so the
	// just-left station becomes the target.
	a.ObserveFeedback(0, mac.Feedback{Kind: mac.FbHeard})
	a.ObserveFeedback(1, mac.Feedback{Kind: mac.FbSilence}) // token 0→1
	injs = a.InjectAppend(2, nil)
	for _, in := range injs {
		if in.Station != 0 {
			t.Errorf("target after one silence = %d, want 0", in.Station)
		}
	}
	a.ObserveFeedback(2, mac.Feedback{Kind: mac.FbSilence}) // token 1→2
	a.ObserveFeedback(3, mac.Feedback{Kind: mac.FbSilence}) // token 2→3
	injs = a.InjectAppend(4, nil)
	for _, in := range injs {
		if in.Station != 2 {
			t.Errorf("target = %d, want 2", in.Station)
		}
	}
}
