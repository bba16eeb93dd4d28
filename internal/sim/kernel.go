// Package sim implements a deterministic discrete-event simulation (DES)
// kernel with cooperatively scheduled processes.
//
// The kernel maintains a virtual clock and an event heap. Exactly one
// thread of control — either the scheduler or a single simulated process —
// runs at any moment: each process body runs on a coroutine (iter.Pull),
// the scheduler resumes it directly and it yields straight back when it
// blocks or exits. This makes the simulation deterministic for a given
// seed and spawn order, and lets event callbacks mutate shared simulation
// state (e.g. simulated RDMA memory regions) without locks.
//
// Processes are ordinary functions of the form func(*Proc). Inside a
// process, blocking operations (Sleep, condition waits, resource
// acquisition, barriers) advance virtual time; plain Go code runs
// instantaneously in virtual time. A process that panics ends Run with an
// error; one that calls runtime.Goexit (as t.FailNow does) ends the
// goroutine that called Run.
//
// A kernel is never shared across goroutines; host parallelism means
// independent kernels, one per goroutine.
//
// The kernel is the substrate for the simulated RDMA fabric
// (dfi/internal/fabric) on which the DFI flow implementation runs.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is a point on the virtual clock, expressed as the duration since the
// start of the simulation.
type Time = time.Duration

// Event kinds. The hot kinds (timers, wake-ups, process starts) carry their
// target process and park generation in the event itself, so scheduling a
// sleep or a wake allocates nothing; only evFn events carry a closure.
const (
	evFn      uint8 = iota // run fn in scheduler context
	evStart                // first scheduling of p
	evTimer                // park timer fired: request a wake at the current instant
	evWake                 // resume p if still parked in generation gen
	evTimeout              // WaitTimeout deadline: mark p timed out, then request a wake
	evOp                   // run op.RunOp(step) in scheduler context (step rides in gen)
)

// Op is a pooled event payload. RunOp fires in scheduler context with the
// step the event was scheduled under (see Kernel.AtOp). Backends use one
// Op value to drive a multi-step pipeline — stage, deliver, commit, ack —
// without allocating a closure per step, which is what makes the
// steady-state data path alloc-free.
type Op interface{ RunOp(step uint8) }

// event is a scheduled callback or process transition. Events with equal
// timestamps fire in the order they were scheduled (seq breaks ties), which
// keeps runs reproducible. Events are stored by value in the heap slice so
// the event loop allocates nothing in steady state.
type event struct {
	at   Time
	seq  uint64
	gen  uint64
	p    *Proc
	fn   func()
	op   Op
	kind uint8
}

// before orders events by (at, seq). seq is unique, so the order is total
// and pop order does not depend on heap internals.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// timeout is a pending WaitTimeout deadline. Timeouts live in their own
// indexed min-heap — ordered by the same (at, seq) keys as events, so
// firing order is exactly what a shared heap would give — because a wake
// that wins the race can then delete its timeout in O(log n). Leaving
// dead timeouts to lazy-expire in the main heap (the old scheme) kept
// ~one stale entry per in-flight timed wait, inflating every heap
// operation on the hot path.
type timeout struct {
	at  Time
	seq uint64
	gen uint64
	p   *Proc
}

// Kernel is a discrete-event simulation instance. Create one with New, spawn
// processes with Spawn, then call Run.
type Kernel struct {
	now     Time
	events  []event   // value-based binary min-heap ordered by (at, seq)
	tmos    []timeout // indexed min-heap of pending WaitTimeout deadlines
	seq     uint64
	running *Proc
	rng     *rand.Rand

	live    []*Proc // spawned and not yet exited, indexed by Proc.liveIdx
	failure error   // first process panic, surfaced by Run

	// MaxEvents aborts Run with an error after this many events, guarding
	// against livelocks (e.g. an unbounded poll loop). Zero means no limit.
	MaxEvents uint64
	// Deadline aborts Run once the virtual clock passes it. Zero means no
	// limit.
	Deadline Time

	nevents uint64
}

// New returns a kernel whose random source is seeded with seed. Two kernels
// constructed with the same seed and driven by the same program execute
// identically.
func New(seed int64) *Kernel {
	return &Kernel{
		rng:       rand.New(rand.NewSource(seed)),
		MaxEvents: 2_000_000_000,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the number of events processed so far.
func (k *Kernel) Events() uint64 { return k.nevents }

// Rand returns the kernel's deterministic random source. It must only be
// used from scheduler or process context (never from other goroutines).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// push assigns the next sequence number and inserts e into the heap
// (timestamps are clamped to now).
func (k *Kernel) push(e event) {
	if e.at < k.now {
		e.at = k.now
	}
	k.seq++
	e.seq = k.seq
	h := append(k.events, e)
	// Bubble a hole from the tail toward the root: parents shift down and
	// e is written once at its final slot. Events are 64 bytes, so doing
	// one copy per level instead of a swap halves the memory traffic of
	// the hottest function in the scheduler.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	k.events = h
}

// pop removes and returns the earliest event. The vacated slot is zeroed so
// it retains no closure or process reference while it waits for reuse.
func (k *Kernel) pop() event {
	h := k.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	k.events = h
	if n == 0 {
		return top
	}
	// Sift a hole down from the root: the smaller child shifts up and the
	// displaced tail element is written once at its final slot (same
	// one-copy-per-level trick as push).
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(&h[l]) {
			l = r
		}
		if !h[l].before(&last) {
			break
		}
		h[i] = h[l]
		i = l
	}
	h[i] = last
	return top
}

// tmoPush registers a WaitTimeout deadline for t.p, assigning the next
// sequence number from the shared counter (so cross-heap ordering is the
// total (at, seq) order a single heap would produce).
func (k *Kernel) tmoPush(t timeout) {
	if t.at < k.now {
		t.at = k.now
	}
	k.seq++
	t.seq = k.seq
	k.tmos = append(k.tmos, t)
	k.tmoUp(len(k.tmos) - 1)
}

func (k *Kernel) tmoUp(i int) {
	h := k.tmos
	for i > 0 {
		parent := (i - 1) / 2
		if h[i].at > h[parent].at || (h[i].at == h[parent].at && h[i].seq > h[parent].seq) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].p.tmoIdx = i
		i = parent
	}
	h[i].p.tmoIdx = i
}

func (k *Kernel) tmoDown(i int) {
	h := k.tmos
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && (h[l].at < h[s].at || (h[l].at == h[s].at && h[l].seq < h[s].seq)) {
			s = l
		}
		if r < n && (h[r].at < h[s].at || (h[r].at == h[s].at && h[r].seq < h[s].seq)) {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		h[i].p.tmoIdx = i
		i = s
	}
	h[i].p.tmoIdx = i
}

// tmoRemove deletes the timeout at heap index i (a wake won the race, or
// the deadline just popped).
func (k *Kernel) tmoRemove(i int) {
	h := k.tmos
	n := len(h) - 1
	h[i].p.tmoIdx = -1
	if i != n {
		h[i] = h[n]
	}
	h[n] = timeout{}
	k.tmos = h[:n]
	if i < n {
		k.tmoDown(i)
		k.tmoUp(i)
	}
}

// at schedules fn to run in scheduler context at time t (clamped to now).
func (k *Kernel) at(t Time, fn func()) {
	k.push(event{at: t, kind: evFn, fn: fn})
}

// After schedules fn to run in scheduler context after d has elapsed on the
// virtual clock. fn must not block; it may resume processes, fire
// conditions, and mutate simulation state.
func (k *Kernel) After(d Time, fn func()) {
	k.at(k.now+d, fn)
}

// At schedules fn to run in scheduler context at absolute virtual time t
// (clamped to the present). Like After, fn must not block.
func (k *Kernel) At(t Time, fn func()) {
	k.at(t, fn)
}

// AtOp schedules op.RunOp(step) to run in scheduler context at absolute
// virtual time t (clamped to the present). The step rides in the event's
// gen field, so scheduling allocates nothing beyond heap growth.
func (k *Kernel) AtOp(t Time, op Op, step uint8) {
	k.push(event{at: t, kind: evOp, op: op, gen: uint64(step)})
}

// Spawn creates a new process executing fn and schedules it to start at the
// current virtual time. It may be called before Run or from a running
// process or event callback. The process gets its coroutine when it is
// first dispatched.
func (k *Kernel) Spawn(name string, fn func(*Proc)) {
	p := &Proc{k: k, name: name, fn: fn, tmoIdx: -1, liveIdx: len(k.live)}
	k.live = append(k.live, p)
	k.push(event{at: k.now, kind: evStart, p: p})
}

// unlink drops an exited process from the live set (swap-remove).
func (k *Kernel) unlink(p *Proc) {
	n := len(k.live) - 1
	last := k.live[n]
	k.live[p.liveIdx] = last
	last.liveIdx = p.liveIdx
	k.live[n] = nil
	k.live = k.live[:n]
}

// ready schedules p to resume at the current virtual time. gen guards
// against stale wake-ups: the wake is dropped unless p is still parked in
// the same park generation.
func (k *Kernel) ready(p *Proc, gen uint64) {
	k.push(event{at: k.now, kind: evWake, p: p, gen: gen})
}

// next pops whichever of the event heap and the timeout heap holds the
// earlier (at, seq) entry, returning it as an event. A popped timeout
// becomes an evTimeout, exactly as if it had lived in the main heap.
func (k *Kernel) next() event {
	if len(k.tmos) > 0 {
		t := &k.tmos[0]
		if len(k.events) == 0 || t.at < k.events[0].at ||
			(t.at == k.events[0].at && t.seq < k.events[0].seq) {
			e := event{at: t.at, seq: t.seq, gen: t.gen, p: t.p, kind: evTimeout}
			k.tmoRemove(0)
			return e
		}
	}
	return k.pop()
}

// dispatch fires one event in scheduler context.
func (k *Kernel) dispatch(e *event) {
	switch e.kind {
	case evFn:
		e.fn()
	case evStart:
		k.switchTo(e.p)
	case evTimer:
		// Double-hop on purpose: the timer requests a wake, and the wake
		// event (with a fresh sequence number) performs the switch after
		// everything already scheduled for this instant.
		k.ready(e.p, e.gen)
	case evWake:
		p := e.p
		if p.exited || !p.parkedFlag || p.parkGen != e.gen {
			return
		}
		p.parkedFlag = false
		k.switchTo(p)
	case evTimeout:
		p := e.p
		if p.parkedFlag && p.parkGen == e.gen {
			p.timedOut = true
			k.ready(p, e.gen)
		}
	case evOp:
		e.op.RunOp(uint8(e.gen))
	}
}

// Run processes events until none remain, a process panics, MaxEvents is
// exceeded, or the Deadline passes. It returns an error describing abnormal
// termination; a deadlock (live processes parked with no pending events) is
// reported with the parked process names.
func (k *Kernel) Run() error {
	for {
		if k.failure != nil {
			return k.failure
		}
		if len(k.events) == 0 && len(k.tmos) == 0 {
			break
		}
		if k.MaxEvents > 0 && k.nevents >= k.MaxEvents {
			return fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v (possible livelock)", k.MaxEvents, k.now)
		}
		e := k.next()
		if k.Deadline > 0 && e.at > k.Deadline {
			return fmt.Errorf("sim: deadline %v exceeded (t=%v)", k.Deadline, e.at)
		}
		k.now = e.at
		k.nevents++
		k.dispatch(&e)
	}
	if len(k.live) > 0 {
		return k.deadlockErr()
	}
	return nil
}

// deadlockErr describes live-but-parked processes once the heaps drained.
func (k *Kernel) deadlockErr() error {
	var names []string
	for _, p := range k.live {
		if p.parkedFlag {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at t=%v: %d live processes, parked: %v", k.now, len(k.live), names)
}

// Proc is a simulated process (the unit of thread-centric execution). All
// methods must be called from the process's own body while it is the
// running process.
type Proc struct {
	k    *Kernel
	name string
	fn   func(*Proc)
	r    *runner // coroutine executing fn; nil before the first dispatch and after exit

	liveIdx    int // index in Kernel.live
	parkedFlag bool
	parkGen    uint64
	exited     bool
	timedOut   bool // set by an evTimeout event matching the current park
	tmoIdx     int  // index of the pending timeout in Kernel.tmos, -1 if none
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Rand returns the kernel's deterministic random source.
func (p *Proc) Rand() *rand.Rand { return p.k.rng }

// Spawn starts a child process at the current virtual time.
func (p *Proc) Spawn(name string, fn func(*Proc)) { p.k.Spawn(name, fn) }

// checkRunning panics if p is not the currently executing process; calling
// kernel primitives from the wrong goroutine would corrupt the simulation.
func (p *Proc) checkRunning() {
	if p.k.running != p {
		panic(fmt.Sprintf("sim: process %q invoked a blocking primitive while not running", p.name))
	}
}

// nextGen returns the park generation the upcoming park will use; wakers
// registered before parking must target this generation.
func (p *Proc) nextGen() uint64 { return p.parkGen + 1 }

// Sleep advances the process's virtual time by d. Negative or zero d is a
// no-op (the process keeps running without yielding the clock).
func (p *Proc) Sleep(d Time) {
	p.checkRunning()
	if d <= 0 {
		return
	}
	k := p.k
	t := k.now + d
	// Run-to-completion fast paths. Parking costs two events and two
	// coroutine switches, so avoid it whenever doing so is observably
	// identical to the park/dispatch/resume dance:
	//
	//  1. If nothing can run before the wake-up time, advance the clock in
	//     place (the timer and wake would have been the next two events in
	//     (at, seq) order anyway).
	//  2. If the globally next pending item is a scheduler callback (evFn
	//     or evOp — code that never blocks and has no process identity),
	//     dispatch it inline on this process's stack and loop. This is
	//     what lets a writer's flush absorb the commit/ack pipeline of
	//     prior segments without a single process switch.
	//
	// Anything else — a process transition (start/timer/wake/timeout), a
	// tie at exactly t, the deadline, the event budget — parks, so Run
	// keeps control of termination and (at, seq) dispatch order stays
	// byte-identical.
	for {
		if (len(k.events) == 0 || t < k.events[0].at) &&
			(len(k.tmos) == 0 || t < k.tmos[0].at) &&
			(k.Deadline <= 0 || t <= k.Deadline) &&
			(k.MaxEvents <= 0 || k.nevents+2 < k.MaxEvents) {
			k.now = t
			k.nevents += 2 // the timer+wake pair this replaces
			return
		}
		if len(k.events) == 0 {
			break
		}
		e := &k.events[0]
		if (e.kind != evFn && e.kind != evOp) || e.at > t {
			break
		}
		if len(k.tmos) > 0 {
			tm := &k.tmos[0]
			if tm.at < e.at || (tm.at == e.at && tm.seq < e.seq) {
				break
			}
		}
		if (k.Deadline > 0 && e.at > k.Deadline) ||
			(k.MaxEvents > 0 && k.nevents >= k.MaxEvents) {
			break
		}
		ev := k.pop()
		k.now = ev.at
		k.nevents++
		if ev.kind == evFn {
			ev.fn()
		} else {
			ev.op.RunOp(uint8(ev.gen))
		}
	}
	k.push(event{at: t, kind: evTimer, p: p, gen: p.nextGen()})
	p.park()
}

// Yield reschedules the process at the current time, letting other events
// scheduled for this instant run first.
func (p *Proc) Yield() {
	p.checkRunning()
	p.k.push(event{at: p.k.now, kind: evTimer, p: p, gen: p.nextGen()})
	p.park()
}
