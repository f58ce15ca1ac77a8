package adversary

import (
	"earmac/internal/core"
	"earmac/internal/mac"
)

// MaxQueue is an adaptive adversary that always injects into the station
// currently holding the longest queue (destinations cycle over the other
// stations). Against algorithms whose service discipline favours loaded
// stations — Orchestra's move-big-to-front, MBTF — it is the natural
// stress test: it tries to keep the served station permanently loaded
// while starving the schedule of diversity. The model permits it: the
// adversary knows the algorithm and could derive the queues itself.
type MaxQueue struct {
	bucket *Bucket
	n      int
	target int
	cursor int
}

// NewMaxQueue builds the adversary for an n-station system.
func NewMaxQueue(n int, typ Type) *MaxQueue {
	return &MaxQueue{bucket: NewBucket(typ), n: n}
}

// InjectAppend implements core.Adversary.
func (a *MaxQueue) InjectAppend(round int64, buf []core.Injection) []core.Injection {
	budget := a.bucket.Tick()
	for i := 0; i < budget; i++ {
		d := (a.target + 1 + a.cursor%(a.n-1)) % a.n
		a.cursor++
		buf = append(buf, core.Injection{Station: a.target, Dest: d})
	}
	a.bucket.Spend(budget)
	return buf
}

// ObserveQueues implements core.QueueObserver: retarget to the longest
// queue (ties to the smallest name).
func (a *MaxQueue) ObserveQueues(round int64, queueLens []int) {
	best, bestLen := 0, -1
	for i, l := range queueLens {
		if l > bestLen {
			best, bestLen = i, l
		}
	}
	a.target = best
}

// AntiToken is an adaptive adversary specialized against round-robin
// token disciplines (the standalone RRW/OF-RRW substrates): it maintains
// an exact replica of the token ring from the channel feedback (the
// token advances on every silent round) and injects each packet into the
// station the token has just left — so every packet waits close to a
// full token cycle, realizing the worst case of the 2n/(1−ρ) bound of
// [3].
type AntiToken struct {
	bucket *Bucket
	n      int
	holder int
	target int
	cursor int
}

// NewAntiToken builds the adversary for an n-station RRW/OF-RRW system
// with token order 0, 1, …, n−1.
func NewAntiToken(n int, typ Type) *AntiToken {
	// Before the first silence the token sits at station 0; the station
	// it most recently "left" is its cyclic predecessor.
	return &AntiToken{bucket: NewBucket(typ), n: n, holder: 0, target: n - 1}
}

// InjectAppend implements core.Adversary.
func (a *AntiToken) InjectAppend(round int64, buf []core.Injection) []core.Injection {
	budget := a.bucket.Tick()
	for i := 0; i < budget; i++ {
		d := (a.target + 1 + a.cursor%(a.n-1)) % a.n
		a.cursor++
		buf = append(buf, core.Injection{Station: a.target, Dest: d})
	}
	a.bucket.Spend(budget)
	return buf
}

// ObserveFeedback implements core.FeedbackObserver: replicate the ring.
func (a *AntiToken) ObserveFeedback(round int64, fb mac.Feedback) {
	if fb.Kind == mac.FbSilence {
		a.target = a.holder
		a.holder = (a.holder + 1) % a.n
	}
}
