package service

import (
	"context"
	"sync"

	"earmac"
)

// Job states. A job moves queued → running → one of the terminal states;
// cancellation can also hit a queued job directly.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// job is one submitted experiment. Its identity is the config's
// fingerprint: submitting the same experiment twice joins the same job
// (while it is live) or hits the cache (once it is done).
type job struct {
	id  string // Config.Fingerprint()
	cfg earmac.Config

	mu        sync.Mutex
	record    bool // mutable only while queued (enableRecord)
	state     string
	errMsg    string
	latest    *earmac.Progress                  // most recent snapshot, replayed to new subscribers
	subs      map[chan earmac.Progress]struct{} // progress streams
	cancel    context.CancelFunc                // set while running
	cancelled bool                              // cancel requested (possibly before dispatch)
	result    []byte                            // canonical report bytes once done
	trace     []byte                            // recorded trace once done (when record)
	counted   bool                              // tallied into the per-state counters
	done      chan struct{}                     // closed on reaching a terminal state
}

func newJob(id string, cfg earmac.Config, record bool) *job {
	return &job{
		id:     id,
		cfg:    cfg,
		record: record,
		state:  StateQueued,
		subs:   make(map[chan earmac.Progress]struct{}),
		done:   make(chan struct{}),
	}
}

// start transitions queued → running and installs the run's cancel
// function. It returns false when the job was cancelled while queued —
// the worker must then skip it (terminal state already reached).
func (j *job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	return true
}

// enableRecord tries to satisfy a record request on this job: already
// recording, or still queued (the flag can be flipped before dispatch).
// Returns false when the job is past the point of recording.
func (j *job) enableRecord() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.record {
		return true
	}
	if j.state == StateQueued && !j.cancelled {
		j.record = true
		return true
	}
	return false
}

// recording reports the record flag (fixed once the job has started).
func (j *job) recording() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.record
}

// requestCancel cancels the job: a running job's RunContext is
// interrupted, a queued job is marked so the dispatcher skips it and
// reaches its terminal state immediately, since no worker will; the
// caller then retires it, which releases its waiters.
func (j *job) requestCancel() {
	j.mu.Lock()
	j.cancelled = true
	cancel := j.cancel
	if j.state == StateQueued {
		j.state = StateCancelled
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// publish fans a progress snapshot out to every subscriber. Slow
// subscribers are skipped rather than blocking the simulation: each
// subscription channel is buffered, and a full buffer drops the
// snapshot (progress is advisory; the result is what matters).
func (j *job) publish(p earmac.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cp := p
	j.latest = &cp
	for ch := range j.subs {
		select {
		case ch <- p:
		default:
		}
	}
}

// subscribe registers a progress stream. The returned channel receives
// the latest snapshot immediately (if any), then live snapshots; it is
// closed when the job reaches a terminal state. unsubscribe must be
// called when the consumer stops listening.
func (j *job) subscribe() chan earmac.Progress {
	ch := make(chan earmac.Progress, 16)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.latest != nil {
		ch <- *j.latest
	}
	if j.terminalLocked() {
		close(ch)
		return ch
	}
	j.subs[ch] = struct{}{}
	return ch
}

func (j *job) unsubscribe(ch chan earmac.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

// complete records a successful run: the canonical report bytes and the
// recorded trace (nil unless recording was requested). The caller then
// retires the job, which releases its waiters.
func (j *job) complete(report, trace []byte) {
	j.mu.Lock()
	j.state = StateDone
	j.result = report
	j.trace = trace
	j.mu.Unlock()
}

// fail records a terminal failure (or cancellation, per state). The
// caller then retires the job, which releases its waiters.
func (j *job) fail(state, msg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = msg
	j.mu.Unlock()
}

// finish closes the done channel and every subscription exactly once.
// The caller must already have published the terminal state; only
// Server.retire calls it, after tallying the job.
func (j *job) finish() {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-j.done:
		return // already finished
	default:
	}
	close(j.done)
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
}

func (j *job) terminalLocked() bool {
	switch j.state {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// markCounted claims the job's single slot in the server's per-state
// tallies: the first caller gets true, every later one false. retire can
// run more than once for the same job (a cancelled corpse is retired
// both by the cancel path and by the worker that pops it), so the tally
// is guarded here rather than at the call sites.
func (j *job) markCounted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.counted {
		return false
	}
	j.counted = true
	return true
}

// terminal reports whether the job has reached a terminal state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminalLocked()
}

// resultBytes returns the canonical report bytes (nil unless done).
func (j *job) resultBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// snapshot returns the fields a status response needs, consistently.
func (j *job) snapshot() (state, errMsg string, latest *earmac.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.latest
}
