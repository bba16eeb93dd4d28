//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sync"
)

// A runner is the coroutine process bodies execute on: an iter.Pull
// coroutine that runs one process body after another. The kernel resumes a
// process with the runner's next and the process parks with its yield, so
// a switch is a direct coroutine handoff rather than two channel operations
// through the Go scheduler. A runner is bound to a process at its first
// dispatch and, once that process exits, goes back to a process-wide free
// list for the next process of any kernel.
type runner struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // process the runner executes next
}

// maxIdleRunners bounds the free list; a runner beyond it is stopped when
// its process exits. Every idle runner holds a parked goroutine stack, so
// the bound caps that memory while still covering the processes a large
// kernel (hundreds of concurrent flows) keeps alive at once.
const maxIdleRunners = 1024

// runnerPool is shared by every kernel. Kernels run on independent
// goroutines, so the free list is locked; it is a plain slice rather than a
// sync.Pool so that a GC cannot empty it mid-run and bring back the
// fourteen allocations a fresh runner costs.
var runnerPool struct {
	sync.Mutex
	free []*runner
}

// getRunner binds p to an idle runner, creating one if the pool is empty.
func getRunner(p *Proc) *runner {
	runnerPool.Lock()
	var r *runner
	if n := len(runnerPool.free); n > 0 {
		r = runnerPool.free[n-1]
		runnerPool.free[n-1] = nil
		runnerPool.free = runnerPool.free[:n-1]
	}
	runnerPool.Unlock()
	if r == nil {
		r = &runner{}
		r.next, r.stop = iter.Pull(r.loop)
	}
	r.p = p
	return r
}

// putRunner returns the runner of an exited process to the pool, or stops
// its coroutine if the pool is full.
func putRunner(r *runner) {
	r.p = nil
	runnerPool.Lock()
	if len(runnerPool.free) < maxIdleRunners {
		runnerPool.free = append(runnerPool.free, r)
		runnerPool.Unlock()
		return
	}
	runnerPool.Unlock()
	r.stop()
}

// loop is the coroutine body: run the bound process to completion, hand
// control back, and wait to be bound again. yield returns false only once
// stop was called.
func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for {
		r.p.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the process body. A panic is recovered and surfaces as
// Run's error, so the runner survives it. runtime.Goexit cannot be
// recovered: it unwinds the whole coroutine, and iter.Pull re-raises it in
// the goroutine that called Run.
func (p *Proc) run() {
	defer func() {
		if v := recover(); v != nil && p.k.failure == nil {
			p.k.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, v)
		}
		p.exited = true
	}()
	p.fn(p)
}

// switchTo transfers control to p and returns once p parks or exits. Must
// be called from scheduler context.
func (k *Kernel) switchTo(p *Proc) {
	if p.exited {
		return
	}
	if p.r == nil {
		p.r = getRunner(p)
	}
	k.running = p
	p.r.next()
	k.running = nil
	if p.exited {
		k.unlink(p)
		putRunner(p.r)
		p.r, p.fn = nil, nil
	}
}

// park blocks the process until woken via Kernel.ready with the current
// park generation. Callers must have registered themselves with a waker
// first.
func (p *Proc) park() {
	p.checkRunning()
	p.parkedFlag = true
	p.parkGen++
	p.r.yield(struct{}{})
}
