package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stream executes jobs on the worker pool and delivers results to emit in
// submission order: result i is emitted only after results 0..i-1, as soon
// as that prefix is complete, while later jobs are still running. This is
// the engine's one batch call, behind the session layer's Run and
// Collect and the service's /v2/jobs NDJSON endpoint.
//
// Stream is per-job tolerant: a job failure does not abort the batch.
// The failed job's Result carries the error on Err (wrapped with the
// job's label) and every other job still runs and is emitted. Jobs
// sharing a failed build fail identically through the build cache. A
// caller that wants all-or-nothing returns the first failed result's
// Err from emit: that cancels the rest, and since emit sees results in
// submission order, the failure returned is the lowest-index one at any
// worker count.
//
// emit is called from the Stream goroutine itself, never concurrently.
// Returning a non-nil error from emit cancels the batch and returns that
// error. External cancellation of ctx stops the workers and returns ctx's
// error; results already emitted stay emitted, the rest are dropped.
func (e *Engine) Stream(ctx context.Context, jobs []Job, emit func(Result) error) error {
	if len(jobs) == 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Up to min(workers, len(jobs)) workers take jobs in submission order
	// by an atomic counter; each files its job's result and sends the
	// index on readyCh. A job abandoned by cancellation mid-run is not
	// filed: the batch is over. A result is held only until it is
	// emitted, so a caller that keeps every result (session.Collect)
	// does not hold the batch twice.
	results := make([]*Result, len(jobs))
	readyCh := make(chan int, len(jobs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(-1)
	submitted := time.Now() // queue-wait baseline for the batch's spans
	for w := 0; w < min(e.workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(jobs) || ctx.Err() != nil {
					return
				}
				j := jobs[i]
				e.emit(Event{Phase: JobStart, Index: i, Total: len(jobs), Label: j.label()})
				res, err := e.runJob(ctx, j, time.Since(submitted))
				if err != nil {
					if ctx.Err() != nil {
						return // abandoned by cancellation; not this job's fault
					}
					e.emit(Event{Phase: JobFailed, Index: i, Total: len(jobs), Label: j.label(), Err: err})
					res.Err = fmt.Errorf("%s: %w", j.label(), err)
				} else {
					e.emit(Event{Phase: JobDone, Index: i, Total: len(jobs), Label: j.label()})
				}
				res.Job, res.Index = j, i
				results[i] = &res
				readyCh <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(readyCh)
	}()

	ready := make([]bool, len(jobs))
	delivered := 0
	var emitErr error
	for i := range readyCh {
		if emitErr != nil {
			continue // drain the channel; the batch is cancelled
		}
		ready[i] = true
		for delivered < len(jobs) && ready[delivered] {
			if err := emit(*results[delivered]); err != nil {
				emitErr = err
				cancel()
				break
			}
			// Release the delivered result's artifacts: a long batch must
			// not pin every image it has already streamed out.
			results[delivered] = nil
			delivered++
		}
	}
	if emitErr != nil {
		return emitErr
	}
	if delivered < len(jobs) {
		// Only external cancellation leaves undelivered jobs behind.
		if err := ctx.Err(); err != nil {
			return err
		}
		return context.Canceled
	}
	return nil
}
