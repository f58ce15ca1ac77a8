package core

import (
	"earmac/internal/idring"
	"earmac/internal/mac"
)

// ledger is the conservation checker's packet bookkeeping. Packet IDs
// are dense and sequential, so the live packets sit in an idring.Ring
// indexed by ID: an ID below the ring's Next that is no longer live was
// delivered or dropped, and one at or beyond it was never assigned.
// Per round the ledger costs O(1) per injection and per retirement. A
// check walks the ring's window [Base, Next), which never exceeds the
// ring and so never twice the widest span of live IDs, plus every held
// packet, and allocates nothing once the ring and the held-packet
// buffer have grown.
//
// Only a faulty station holds an ID that is not live or retires one
// outside [0, Next). Such IDs go to side maps created on first use, so
// a well-behaved run never allocates them.
type ledger struct {
	ring  idring.Ring[entry]
	epoch uint32       // current check; entry.holders is valid when stamped with it
	held  []mac.Packet // AppendHeld scratch, reused across stations and checks
	// strays counts this check's holders of IDs that are not live.
	strays map[int64]int
	// phantoms holds the unassigned IDs a station delivered or dropped.
	phantoms map[int64]bool
}

// entry is one live packet. Its ID is its ring index.
type entry struct {
	injected  int64
	src, dest int32
	epoch     uint32 // check that last counted holders
	holders   int32  // holders seen in that check
}

func (e *entry) packet(id int64) mac.Packet {
	return mac.Packet{ID: id, Src: int(e.src), Dest: int(e.dest), Injected: e.injected}
}

// add records a packet the simulator just injected; p.ID must be the
// ring's Next.
//
//earmac:hotpath
func (l *ledger) add(p mac.Packet) {
	l.ring.Push(entry{injected: p.Injected, src: int32(p.Src), dest: int32(p.Dest)})
}

// assigned reports whether the simulator has handed out id.
func (l *ledger) assigned(id int64) bool { return id >= 0 && id < l.ring.Next() }

// gone reports whether id was delivered or dropped: an assigned ID that
// is no longer live, or a phantom.
//
//earmac:hotpath
func (l *ledger) gone(id int64) bool {
	if l.assigned(id) && l.ring.Get(id) == nil {
		return true
	}
	return len(l.phantoms) > 0 && l.phantoms[id]
}

// retire marks id delivered or dropped.
//
//earmac:hotpath
func (l *ledger) retire(id int64) {
	if _, ok := l.ring.Take(id); ok || l.assigned(id) {
		return
	}
	if l.phantoms == nil {
		//earmac:alloc -- only a faulty station retires an unassigned ID
		l.phantoms = make(map[int64]bool)
	}
	l.phantoms[id] = true
}

// beginCheck starts a holder count.
func (l *ledger) beginCheck() {
	clear(l.strays)
	l.epoch++
	if l.epoch == 0 {
		// The stamp wrapped: clear every live entry's stale stamp so
		// none can pass for the new check's.
		for id := l.ring.Base(); id < l.ring.Next(); id++ {
			if e := l.ring.Get(id); e != nil {
				e.epoch = 0
			}
		}
		l.epoch = 1
	}
}

// hold counts one holder of id in the current check and returns the
// count so far.
func (l *ledger) hold(id int64) int {
	if e := l.ring.Get(id); e != nil {
		if e.epoch != l.epoch {
			e.epoch, e.holders = l.epoch, 0
		}
		e.holders++
		return int(e.holders)
	}
	if l.strays == nil {
		//earmac:alloc -- only a faulty station holds an ID that is not live
		l.strays = make(map[int64]int)
	}
	l.strays[id]++
	return l.strays[id]
}

// holders returns the current check's holder count of a live entry.
func (l *ledger) holders(e *entry) int {
	if e.epoch != l.epoch {
		return 0
	}
	return int(e.holders)
}
