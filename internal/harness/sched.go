package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the sweep scheduler: every experiment flattens
// its (configuration × program) grid into independent jobs on one
// bounded work-stealing pool, and folds the results back in declaration
// order. Parallel execution therefore changes wall-clock time only —
// every rendered table, CSV and report stays byte-identical to a serial
// run, which the differential tests pin.
//
// Scheduling discipline: jobs are leaves. A job never submits further
// jobs and never waits on a Future; all submission and waiting happens
// in driver code outside the pool, so a bounded pool cannot deadlock.

// Scheduler executes independent jobs on a bounded pool of workers.
// Each worker owns a deque: it pops its own work newest-first (LIFO,
// cache-warm) and steals from the fullest other deque oldest-first
// (FIFO), so large sweeps spread across workers without a central
// bottleneck. The zero value (and Serial()) is a degenerate scheduler
// that runs every job inline at submission time — the reference serial
// path the differential tests compare against.
type Scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]func()
	next   int   // round-robin submission target (tie-break)
	idle   []int // workers currently parked in cond.Wait, newest last
	closed bool
	wg     sync.WaitGroup

	// Telemetry. submits is atomic so the serial (lock-free) path can
	// count too; the queue-shape counters are only touched under mu,
	// where the scheduler already is at every event of interest; busy
	// is per-worker and updated outside the lock around job execution.
	submits  atomic.Uint64
	ownPops  uint64
	steals   uint64
	parks    uint64
	queued   int            // jobs currently queued across all deques
	maxDepth int            // high-water mark of queued
	busy     []atomic.Int64 // per-worker ns spent executing jobs
}

// PoolStats is a point-in-time snapshot of the scheduler's telemetry:
// how work arrived (Submits), how it was claimed (OwnPops from a
// worker's own deque vs Steals from a victim), how often workers ran
// dry (Parks), the deepest backlog seen (MaxQueueDepth), and where the
// execution time went (WorkerBusy, one duration per worker). A serial
// scheduler only counts Submits — everything else describes the pool.
type PoolStats struct {
	Workers       int
	Submits       uint64
	OwnPops       uint64
	Steals        uint64
	Parks         uint64
	MaxQueueDepth int
	WorkerBusy    []time.Duration
}

// BusyTotal sums the per-worker execution time.
func (p PoolStats) BusyTotal() time.Duration {
	var t time.Duration
	for _, d := range p.WorkerBusy {
		t += d
	}
	return t
}

// Stats snapshots the scheduler's telemetry counters. It is safe to
// call concurrently with running work; counters read mid-flight may
// trail each other by the events in between. Each counter is
// individually monotonic across snapshots, and the claim counters are
// read before Submits so OwnPops + Steals <= Submits holds in every
// snapshot (a job is submitted before it can be claimed; reading
// claims first can only undercount them relative to submits).
func (s *Scheduler) Stats() PoolStats {
	st := PoolStats{Workers: len(s.deques)}
	s.mu.Lock()
	st.OwnPops, st.Steals, st.Parks = s.ownPops, s.steals, s.parks
	st.MaxQueueDepth = s.maxDepth
	s.mu.Unlock()
	st.Submits = s.submits.Load()
	if len(s.busy) > 0 {
		st.WorkerBusy = make([]time.Duration, len(s.busy))
		for i := range s.busy {
			st.WorkerBusy[i] = time.Duration(s.busy[i].Load())
		}
	}
	return st
}

// NewScheduler starts a pool with the given number of workers; n <= 0
// means one worker per available CPU (GOMAXPROCS).
func NewScheduler(n int) *Scheduler {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{deques: make([][]func(), n), busy: make([]atomic.Int64, n)}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go s.work(i)
	}
	return s
}

// Serial returns a scheduler that runs every job synchronously inside
// Submit, in submission order — exactly the pre-scheduler execution
// order of the experiment drivers.
func Serial() *Scheduler { return &Scheduler{} }

// Workers returns the pool size (0 for a serial scheduler).
func (s *Scheduler) Workers() int { return len(s.deques) }

// serial reports whether jobs run inline at submission.
func (s *Scheduler) serial() bool { return len(s.deques) == 0 }

// Close stops the workers after the queued jobs finish. Submitting
// after Close panics. Close is a no-op on a serial scheduler.
func (s *Scheduler) Close() {
	if s.serial() {
		return
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// submit queues one job (or runs it inline when serial). Placement is
// idle-biased: a parked worker's own deque is preferred (it own-pops on
// wake instead of stealing), then the shortest deque (balancing at
// submission instead of via steals), with the round-robin cursor as the
// tie-break. A wakeup is signalled only when a worker is actually
// parked — when every worker is busy they all re-enter grabLocked on
// their own, and an unconditional Signal per submit just thrashes the
// condvar on grids small relative to the pool.
func (s *Scheduler) submit(fn func()) {
	s.submits.Add(1)
	if s.serial() {
		fn()
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("harness: submit on closed scheduler")
	}
	target := s.next
	if len(s.idle) > 0 {
		// Longest-parked worker: cond.Wait queues are FIFO, so the
		// worker Signal is about to wake is the one whose deque the job
		// lands on — it own-pops instead of stealing.
		target = s.idle[0]
	} else {
		for j := range s.deques {
			if len(s.deques[j]) < len(s.deques[target]) {
				target = j
			}
		}
	}
	s.deques[target] = append(s.deques[target], fn)
	s.next = (s.next + 1) % len(s.deques)
	s.queued++
	if s.queued > s.maxDepth {
		s.maxDepth = s.queued
	}
	wake := len(s.idle) > 0
	s.mu.Unlock()
	if wake {
		s.cond.Signal()
	}
}

// work is one worker's loop: drain own deque, steal, or park.
func (s *Scheduler) work(i int) {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		if fn := s.grabLocked(i); fn != nil {
			s.mu.Unlock()
			start := time.Now()
			fn()
			s.busy[i].Add(int64(time.Since(start)))
			s.mu.Lock()
			continue
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.parks++
		s.idle = append(s.idle, i)
		s.cond.Wait()
		s.removeIdleLocked(i)
	}
}

// removeIdleLocked drops worker i from the idle stack after a wakeup.
func (s *Scheduler) removeIdleLocked(i int) {
	for j := len(s.idle) - 1; j >= 0; j-- {
		if s.idle[j] == i {
			s.idle = append(s.idle[:j], s.idle[j+1:]...)
			return
		}
	}
}

// grabLocked takes the next job for worker i: newest from its own
// deque, else oldest from the fullest victim.
func (s *Scheduler) grabLocked(i int) func() {
	if d := s.deques[i]; len(d) > 0 {
		fn := d[len(d)-1]
		d[len(d)-1] = nil
		s.deques[i] = d[:len(d)-1]
		s.ownPops++
		s.queued--
		return fn
	}
	victim := -1
	for j := range s.deques {
		if j == i || len(s.deques[j]) == 0 {
			continue
		}
		if victim < 0 || len(s.deques[j]) > len(s.deques[victim]) {
			victim = j
		}
	}
	if victim < 0 {
		return nil
	}
	d := s.deques[victim]
	fn := d[0]
	d[0] = nil
	s.deques[victim] = d[1:]
	s.steals++
	s.queued--
	return fn
}

var (
	defaultSchedOnce sync.Once
	defaultSched     *Scheduler
)

// DefaultScheduler returns the shared process-wide pool, sized to
// GOMAXPROCS, that the synchronous experiment entry points use. It is
// created on first use and lives for the life of the process.
func DefaultScheduler() *Scheduler {
	defaultSchedOnce.Do(func() { defaultSched = NewScheduler(0) })
	return defaultSched
}

// Future is the pending result of one submitted job.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// PanicError is the error a job resolves to when it panics: the pool
// recovers per job, so one faulty job fails only its own futures while
// the worker, the pool and every other job carry on.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string { return fmt.Sprintf("harness: job panicked: %v", e.Value) }

// recoverJob, deferred by a job body, turns a panic into a *PanicError
// in *err.
func recoverJob(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v, Stack: debug.Stack()}
	}
}

// Submit schedules fn on s and returns its future. On a serial
// scheduler fn runs before Submit returns. A panic in fn resolves the
// future to a *PanicError.
func Submit[T any](s *Scheduler, fn func() (T, error)) *Future[T] {
	f := &Future[T]{done: make(chan struct{})}
	s.submit(func() {
		defer close(f.done)
		defer recoverJob(&f.err)
		f.val, f.err = fn()
	})
	return f
}

// Wait blocks until the job has run and returns its result.
func (f *Future[T]) Wait() (T, error) {
	<-f.done
	return f.val, f.err
}

// WaitCtx is Wait with an escape hatch: it returns ctx's error if ctx
// is done before the job finishes. The job itself keeps running (the
// pool is shared; abandoning a wait must not corrupt it) — pass the
// same ctx into the job via SubmitCtx so the work also stops promptly.
func (f *Future[T]) WaitCtx(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// SubmitCtx schedules fn with a context: if ctx is already done when
// the job is dequeued, fn never runs and the future resolves to ctx's
// error — so a cancelled request's queued jobs drain at no cost instead
// of occupying workers. fn receives ctx and is expected to honor it
// (e.g. by running the engine over a trace.WithContext source).
func SubmitCtx[T any](ctx context.Context, s *Scheduler, fn func(context.Context) (T, error)) *Future[T] {
	return Submit(s, func() (T, error) {
		if err := ctx.Err(); err != nil {
			var zero T
			return zero, err
		}
		return fn(ctx)
	})
}
