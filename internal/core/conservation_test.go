package core

import (
	"math"
	"slices"
	"testing"

	"earmac/internal/mac"
)

// scriptAdv injects a fixed list per round.
type scriptAdv map[int64][]Injection

func (a scriptAdv) InjectAppend(round int64, buf []Injection) []Injection {
	return append(buf, a[round]...)
}

// faultCase is one faulty execution for the conservation checker: the
// stations follow their scripts, the before hooks tamper with queues
// ahead of the given rounds, and CheckEvery fires the checker.
type faultCase struct {
	name   string
	direct bool
	every  int64
	rounds int64
	injs   scriptAdv
	build  func() []*scriptProto
	before map[int64]func(st []*scriptProto)
	// want is the lenient run's exact Tracker.Violations; wantErr is the
	// strict run's first error.
	want    []string
	wantErr string
}

// idle returns n stations that stay switched off.
func idle(n int) func() []*scriptProto {
	return func() []*scriptProto {
		st := make([]*scriptProto, n)
		for i := range st {
			st[i] = &scriptProto{}
		}
		return st
	}
}

// courier returns a transmitter that sends its oldest queued packet in
// the given rounds, and a receiver listening in the same rounds.
func courier(rounds int, remove bool, rxOn bool) func() []*scriptProto {
	return func() []*scriptProto {
		tx := &scriptProto{removeOnTx: remove}
		rx := &scriptProto{}
		for r := 0; r < rounds; r++ {
			tx.acts = append(tx.acts, Transmit(mac.Message{}))
			tx.txPacket = append(tx.txPacket, true)
			if rxOn {
				rx.acts = append(rx.acts, Listen())
			} else {
				rx.acts = append(rx.acts, Off())
			}
		}
		return []*scriptProto{tx, rx}
	}
}

func (c faultCase) run(strict bool) (*Sim, error) {
	st := c.build()
	protos := make([]Protocol, len(st))
	for i, p := range st {
		protos[i] = p
	}
	system := &System{
		Info:     AlgorithmInfo{Name: "faulty", EnergyCap: len(st), Direct: c.direct},
		Stations: protos,
	}
	s := NewSim(system, c.injs, Options{Strict: strict, CheckEvery: c.every})
	for r := int64(0); r < c.rounds; r++ {
		if f := c.before[r]; f != nil {
			f(st)
		}
		if err := s.Step(); err != nil {
			return s, err
		}
	}
	return s, nil
}

// TestConservationViolations pins the conservation checker's output on
// faulty stations: in lenient mode the exact violation list, in strict
// mode the first error. The checker's bookkeeping may change; what it
// reports, and in which order, may not.
func TestConservationViolations(t *testing.T) {
	pkt := func(id int64, src, dest int, at int64) mac.Packet {
		return mac.Packet{ID: id, Src: src, Dest: dest, Injected: at}
	}
	cases := []faultCase{{
		name: "lost packets", every: 2, rounds: 2,
		injs:  scriptAdv{0: {{0, 1}, {0, 1}, {1, 0}, {0, 0}}},
		build: idle(2),
		before: map[int64]func([]*scriptProto){1: func(st []*scriptProto) {
			st[0].queue = st[0].queue[1:2] // keep pkt#1, lose pkt#0 and pkt#3
		}},
		want: []string{
			"in-flight packet pkt#0 0->1@0 held by 0 stations",
			"in-flight packet pkt#3 0->0@0 held by 0 stations",
		},
		wantErr: "round 2: in-flight packet pkt#0 0->1@0 held by 0 stations",
	}, {
		name: "two holders", every: 1, rounds: 2,
		injs:  scriptAdv{0: {{0, 1}, {0, 1}}},
		build: idle(2),
		before: map[int64]func([]*scriptProto){1: func(st []*scriptProto) {
			st[1].queue = append(st[1].queue, st[0].queue[1])
		}},
		want: []string{
			"packet pkt#1 0->1@0 held by more than one station",
			"in-flight packet pkt#1 0->1@0 held by 2 stations",
		},
		wantErr: "round 2: packet pkt#1 0->1@0 held by more than one station",
	}, {
		name: "three holders", every: 1, rounds: 2,
		injs:  scriptAdv{0: {{2, 0}}},
		build: idle(3),
		before: map[int64]func([]*scriptProto){1: func(st []*scriptProto) {
			st[0].queue = append(st[0].queue, st[2].queue[0])
			st[1].queue = append(st[1].queue, st[2].queue[0])
		}},
		want: []string{
			"packet pkt#0 2->0@0 held by more than one station",
			"packet pkt#0 2->0@0 held by more than one station",
			"in-flight packet pkt#0 2->0@0 held by 3 stations",
		},
		wantErr: "round 2: packet pkt#0 2->0@0 held by more than one station",
	}, {
		name: "direct algorithm relays", direct: true, every: 1, rounds: 2,
		injs:  scriptAdv{0: {{0, 1}}},
		build: idle(2),
		before: map[int64]func([]*scriptProto){1: func(st []*scriptProto) {
			st[1].queue, st[0].queue = st[0].queue, nil
		}},
		want:    []string{"direct algorithm relayed packet pkt#0 0->1@0 to station 1"},
		wantErr: "round 2: direct algorithm relayed packet pkt#0 0->1@0 to station 1",
	}, {
		name: "fabricated ID -1", every: 1, rounds: 2,
		injs:  scriptAdv{0: {{0, 1}}},
		build: idle(2),
		before: map[int64]func([]*scriptProto){1: func(st []*scriptProto) {
			st[0].queue = append(st[0].queue, pkt(-1, 0, 1, 0))
			st[1].queue = append(st[1].queue, pkt(-1, 0, 1, 0))
		}},
		want: []string{
			"station 0 holds unknown packet pkt#-1 0->1@0",
			"packet pkt#-1 0->1@0 held by more than one station",
			"station 1 holds unknown packet pkt#-1 0->1@0",
		},
		wantErr: "round 2: station 0 holds unknown packet pkt#-1 0->1@0",
	}, {
		name: "fabricated IDs at and past nextID", every: 1, rounds: 2,
		injs:  scriptAdv{0: {{0, 1}}},
		build: idle(2),
		before: map[int64]func([]*scriptProto){1: func(st []*scriptProto) {
			st[1].queue = append(st[1].queue, pkt(1, 1, 0, 0), pkt(1<<40, 1, 0, 0))
		}},
		want: []string{
			"station 1 holds unknown packet pkt#1 1->0@0",
			"station 1 holds unknown packet pkt#1099511627776 1->0@0",
		},
		wantErr: "round 2: station 1 holds unknown packet pkt#1 1->0@0",
	}, {
		name: "delivered twice", every: 2, rounds: 2,
		injs:  scriptAdv{0: {{0, 1}}},
		build: courier(2, false, true),
		want: []string{
			"packet pkt#0 0->1@0 delivered twice",
			"station 0 holds already-delivered packet pkt#0 0->1@0",
		},
		wantErr: "round 1: packet pkt#0 0->1@0 delivered twice",
	}, {
		name: "fabricated IDs delivered, then held", every: 3, rounds: 3,
		injs:  scriptAdv{0: {{0, 1}}},
		build: courier(2, true, true),
		before: map[int64]func([]*scriptProto){
			0: func(st []*scriptProto) {
				st[0].queue = []mac.Packet{pkt(-1, 0, 1, 0), pkt(5, 0, 1, 0)}
			},
			2: func(st []*scriptProto) {
				st[1].queue = append(st[1].queue, pkt(5, 0, 1, 0), pkt(-1, 0, 1, 0))
			},
		},
		want: []string{
			"station 1 holds already-delivered packet pkt#5 0->1@0",
			"station 1 holds already-delivered packet pkt#-1 0->1@0",
		},
		wantErr: "round 3: station 1 holds already-delivered packet pkt#5 0->1@0",
	}, {
		// The fabricated ID 2 is delivered before the simulator assigns
		// it; the real pkt#2 then counts as delivered already.
		name: "fabricated ID delivered before its injection", every: 4, rounds: 4,
		injs:  scriptAdv{0: {{0, 1}}, 2: {{1, 0}, {1, 0}, {1, 0}}},
		build: courier(1, true, true),
		before: map[int64]func([]*scriptProto){0: func(st []*scriptProto) {
			st[0].queue = []mac.Packet{pkt(2, 0, 1, 0)}
		}},
		want: []string{
			"station 1 holds already-delivered packet pkt#2 1->0@2",
		},
		wantErr: "round 4: station 1 holds already-delivered packet pkt#2 1->0@2",
	}, {
		name: "dropped at an off destination, then held", direct: true, every: 1, rounds: 2,
		injs:  scriptAdv{0: {{0, 1}, {0, 1}}},
		build: courier(1, false, false),
		want: []string{
			"station 0 holds already-delivered packet pkt#0 0->1@0",
			"station 0 holds already-delivered packet pkt#0 0->1@0",
		},
		wantErr: "round 1: station 0 holds already-delivered packet pkt#0 0->1@0",
	}, {
		name: "lost past the first ring", every: 12, rounds: 12,
		injs:  scriptAdv{0: slices.Repeat([]Injection{{0, 1}}, 40), 5: slices.Repeat([]Injection{{1, 0}}, 30)},
		build: courier(10, true, true),
		before: map[int64]func([]*scriptProto){11: func(st []*scriptProto) {
			st[0].queue = slices.DeleteFunc(st[0].queue, func(p mac.Packet) bool { return p.ID == 33 })
			st[1].queue = slices.DeleteFunc(st[1].queue, func(p mac.Packet) bool { return p.ID == 41 || p.ID == 69 })
		}},
		want: []string{
			"in-flight packet pkt#33 0->1@0 held by 0 stations",
			"in-flight packet pkt#41 1->0@5 held by 0 stations",
			"in-flight packet pkt#69 1->0@5 held by 0 stations",
		},
		wantErr: "round 12: in-flight packet pkt#33 0->1@0 held by 0 stations",
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.run(false)
			if err != nil {
				t.Fatalf("lenient run returned %v", err)
			}
			if got := s.Tracker().Violations; !slices.Equal(got, c.want) {
				t.Errorf("lenient violations:\n got %q\nwant %q", got, c.want)
			}
			_, err = c.run(true)
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("strict error = %v, want %q", err, c.wantErr)
			}
		})
	}
}

// TestConservationStampWrap: the ledger's per-check stamp is 32 bits. A
// packet counted once and then lost must still be reported after the
// stamp wraps around to the value it was counted under.
func TestConservationStampWrap(t *testing.T) {
	st := &scriptProto{}
	s := NewSim(sys(1, st), scriptAdv{0: {{0, 0}}}, Options{CheckEvery: 1})
	if err := s.Step(); err != nil { // check 1 counts pkt#0 once
		t.Fatal(err)
	}
	st.queue = nil
	s.ledger.epoch = math.MaxUint32 // the next two checks wrap past stamp 1
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	want := slices.Repeat([]string{"in-flight packet pkt#0 0->0@0 held by 0 stations"}, 2)
	if got := s.Tracker().Violations; !slices.Equal(got, want) {
		t.Errorf("violations:\n got %q\nwant %q", got, want)
	}
}
