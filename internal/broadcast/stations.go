package broadcast

import "earmac/internal/core"

// newSystem builds a standalone baseline: n always-on stations (energy
// cap n), each a replica of the protocol over all n, direct delivery.
// Only MBTF sends control bits.
func newSystem(name string, kind Kind, n int) *core.System {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	reps := make([]Replica, n)
	stations := make([]core.Protocol, n)
	for i := range stations {
		reps[i] = NewReplica(kind, i, ids, n)
		stations[i] = &reps[i]
	}
	return &core.System{
		Info: core.AlgorithmInfo{
			Name: name, EnergyCap: n, PlainPacket: kind != MBTF, Direct: true, Oblivious: true,
		},
		Stations: stations,
		// The trivial oblivious schedule of the original broadcast
		// setting, one set always on duty: every station on in every round.
		Schedule: NewRoster(n, 1, [][]int{ids}),
	}
}

// NewRRWSystem builds the standalone RRW baseline [18].
func NewRRWSystem(n int) *core.System { return newSystem("rrw", RRW, n) }

// NewOFRRWSystem builds the standalone OF-RRW baseline [3].
func NewOFRRWSystem(n int) *core.System { return newSystem("ofrrw", OFRRW, n) }

// NewMBTFSystem builds the standalone MBTF baseline [17] — throughput 1
// without an energy cap.
func NewMBTFSystem(n int) *core.System { return newSystem("mbtf", MBTF, n) }
