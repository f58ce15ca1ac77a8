package expt

import (
	"context"

	"earmac/internal/pool"
)

// RunConcurrent executes the specs across a bounded worker pool
// (workers <= 0 means GOMAXPROCS) and returns the outcomes in spec order
// regardless of worker count. Each spec builds its own system, adversary,
// and tracker, so runs are independent and deterministic. The first
// simulation error, or the context's error if it is cancelled, is
// returned alongside the outcomes gathered so far; outcomes of specs
// that did not run have an empty ID.
func RunConcurrent(ctx context.Context, specs []Spec, workers int) ([]Outcome, error) {
	outs := make([]Outcome, len(specs))
	errs := make([]error, len(specs))
	if err := pool.RunIndexed(ctx, len(specs), workers, func(i int) {
		outs[i], errs[i] = Run(specs[i])
	}); err != nil {
		return outs, err
	}
	for _, err := range errs {
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}
