// Package chanloop is an in-process transport backend: goroutines,
// channels and real []byte movement under wall-clock time, with no
// discrete-event kernel. It implements dfi/internal/transport so the DFI
// data path (core.Source/core.Target) runs on it unmodified — proving
// the flow API is backend-agnostic and rehearsing the concurrency a
// socket or verbs backend will face.
//
// Semantics mirror the DES fabric where the conformance suite
// (dfi/internal/transport/transporttest) pins them:
//
//   - Work requests on one queue execute in posting order (RC ordering):
//     each queue owns a worker goroutine draining an op channel.
//   - WRITE bodies commit strictly before their CommitTail bytes, the
//     whole segment applied under one region-lock hold; the region's
//     commit counter advances under the same lock, so a consumer that
//     observed a commit (WaitCommit/Load) reads the payload race-free
//     without copying.
//   - Source buffers are snapshotted synchronously at post time. That is
//     valid under the selective-signaling contract (callers must keep a
//     WR's buffer stable until a covering completion) and means local
//     ring reuse needs no extra synchronization.
//   - Atomics execute on the target region under its lock and block the
//     poster for the reply, serializing concurrent fetch-adds.
//   - Multicast is unreliable: a send finding no posted receive at a
//     member is dropped and counted, exactly like UD multicast.
//
// What chanloop does not model: virtual time, fault injection, crashes,
// leases/eviction, link bandwidth or CPU cost (Compute is a no-op).
// Those stay DES-only; see docs/ARCHITECTURE.md for the backend matrix.
package chanloop

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dfi/internal/transport"
)

// opsBuffer is the per-queue op-channel depth. Posting blocks when the
// worker falls this far behind, a crude but safe form of backpressure.
const opsBuffer = 1024

// Net is the chanloop backend: a factory for endpoints, queues, regions
// and multicast groups wired through in-process channels.
type Net struct {
	start    time.Time
	mu       sync.Mutex
	nextID   int
	nextSeed int64
	tracer   atomic.Pointer[tracerBox]
}

type tracerBox struct{ t transport.Tracer }

// New creates an empty chanloop network.
func New() *Net {
	return &Net{start: time.Now()}
}

// NewEndpoint adds an endpoint (one per simulated node).
func (n *Net) NewEndpoint() *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &Endpoint{net: n, id: n.nextID}
	n.nextID++
	return ep
}

// NewCtx returns a fresh execution context owned by the calling
// goroutine — the wall-clock analogue of a root sim process.
func (n *Net) NewCtx() transport.Ctx {
	n.mu.Lock()
	seed := n.nextSeed
	n.nextSeed++
	n.mu.Unlock()
	return &ctx{net: n, rnd: rand.New(rand.NewSource(seed))}
}

// SetTracer installs t to observe every verb (nil disables).
func (n *Net) SetTracer(t transport.Tracer) {
	if t == nil {
		n.tracer.Store(nil)
		return
	}
	n.tracer.Store(&tracerBox{t: t})
}

// trace reports an executed verb to the installed tracer. Workers call
// it concurrently; the bundled Recorder is mutex-guarded.
func (n *Net) trace(kind transport.OpKind, from, to int, bytes int, posted, arrived time.Duration) {
	box := n.tracer.Load()
	if box == nil || box.t == nil {
		return
	}
	box.t.Trace(transport.TraceOp{
		Kind: kind, From: from, To: to, Bytes: bytes,
		Posted: posted, Arrived: arrived, Disposition: transport.Delivered,
	})
}

func (n *Net) now() time.Duration { return time.Since(n.start) }

// Spawn starts fn on a new goroutine with its own context.
func (n *Net) Spawn(parent transport.Ctx, name string, fn func(transport.Ctx)) {
	c := n.NewCtx()
	go fn(c)
}

// CopiesPayload reports true: chanloop always moves real bytes.
func (n *Net) CopiesPayload() bool { return true }

// SwitchEndpoint returns an auxiliary endpoint for in-network compute.
func (n *Net) SwitchEndpoint() transport.Endpoint { return n.NewEndpoint() }

// ctx is a wall-clock execution context owned by one goroutine.
type ctx struct {
	net *Net
	rnd *rand.Rand
}

func (c *ctx) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

func (c *ctx) Now() time.Duration { return c.net.now() }

func (c *ctx) Rand() *rand.Rand { return c.rnd }

// Endpoint is one chanloop attachment point.
type Endpoint struct {
	net *Net
	id  int
}

// ID returns the endpoint's numeric identity.
func (ep *Endpoint) ID() int { return ep.id }

// Compute is a no-op: chanloop does not model CPU cost.
func (ep *Endpoint) Compute(p transport.Ctx, d time.Duration) {}

// Crashed reports false: chanloop has no fault injection.
func (ep *Endpoint) Crashed(at time.Duration) bool { return false }

func asEndpoint(ep transport.Endpoint) *Endpoint {
	e, ok := ep.(*Endpoint)
	if !ok {
		panic(fmt.Sprintf("chanloop: endpoint %T is not a chanloop endpoint", ep))
	}
	return e
}

// Region is a registered memory region. The mutex orders remote verb
// commits against local Store/Load and the commit counter: a consumer
// that observed a commit under the lock may then read the committed
// payload through Bytes without further synchronization.
type Region struct {
	owner *Endpoint
	mu    sync.Mutex
	buf   []byte
	seq   uint64
	// change is closed and replaced on every commit (broadcast).
	change chan struct{}
}

// OpenRegion registers a memory region of the given size on ep.
func (n *Net) OpenRegion(ep transport.Endpoint, size int) transport.Region {
	return &Region{owner: asEndpoint(ep), buf: make([]byte, size), change: make(chan struct{})}
}

// Bytes exposes the backing buffer (see the type comment for the rules).
func (r *Region) Bytes() []byte { return r.buf }

// Owner returns the owning endpoint.
func (r *Region) Owner() transport.Endpoint { return r.owner }

// Deregister is a no-op (the garbage collector owns the buffer).
func (r *Region) Deregister() {}

// Store copies src into the region at off, ordered against remote
// commits.
func (r *Region) Store(off int, src []byte) {
	r.mu.Lock()
	copy(r.buf[off:off+len(src)], src)
	r.mu.Unlock()
}

// Load copies region bytes at off into dst, ordered against remote
// commits.
func (r *Region) Load(off int, dst []byte) {
	r.mu.Lock()
	copy(dst, r.buf[off:off+len(dst)])
	r.mu.Unlock()
}

// CommitSeq returns the count of remote commits applied so far.
func (r *Region) CommitSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// commit applies fn to the buffer under the lock, bumps the commit
// counter and wakes waiters.
func (r *Region) commit(fn func(buf []byte)) {
	r.mu.Lock()
	fn(r.buf)
	r.seq++
	close(r.change)
	r.change = make(chan struct{})
	r.mu.Unlock()
}

// WaitCommit blocks until the commit counter passes since or d elapses.
func (r *Region) WaitCommit(p transport.Ctx, since uint64, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		r.mu.Lock()
		if r.seq != since {
			r.mu.Unlock()
			return true
		}
		ch := r.change
		r.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// WaitChange blocks until the next commit or d elapses.
func (r *Region) WaitChange(p transport.Ctx, d time.Duration) bool {
	return r.WaitCommit(p, r.CommitSeq(), d)
}

func asRegion(a transport.Addr) *Region {
	r, ok := a.MR.(*Region)
	if !ok {
		panic(fmt.Sprintf("chanloop: Addr region %T is not a chanloop region", a.MR))
	}
	return r
}

// CQ is a completion queue: mutex-guarded entries plus a broadcast
// channel for blocking waits.
type CQ struct {
	mu      sync.Mutex
	entries []transport.Completion
	change  chan struct{}
}

func newCQ() *CQ { return &CQ{change: make(chan struct{})} }

func (cq *CQ) push(e transport.Completion) {
	cq.mu.Lock()
	cq.entries = append(cq.entries, e)
	close(cq.change)
	cq.change = make(chan struct{})
	cq.mu.Unlock()
}

// requeue re-appends a drained completion (ReadSync's unrelated-entry
// preservation).
func (cq *CQ) requeue(e transport.Completion) { cq.push(e) }

// Poll removes one completion without blocking.
func (cq *CQ) Poll(p transport.Ctx) (transport.Completion, bool) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if len(cq.entries) == 0 {
		return transport.Completion{}, false
	}
	e := cq.entries[0]
	cq.entries = cq.entries[1:]
	return e, true
}

// PollBatch drains up to len(out) completions in one lock hold — the
// burst win on this backend: one acquisition per batch instead of one
// per entry, with completion order preserved.
func (cq *CQ) PollBatch(p transport.Ctx, out []transport.Completion) int {
	cq.mu.Lock()
	n := copy(out, cq.entries)
	if n > 0 {
		rest := copy(cq.entries, cq.entries[n:])
		cq.entries = cq.entries[:rest]
	}
	cq.mu.Unlock()
	return n
}

// Wait blocks until a completion is available and removes it.
func (cq *CQ) Wait(p transport.Ctx) transport.Completion {
	for {
		cq.mu.Lock()
		if len(cq.entries) > 0 {
			e := cq.entries[0]
			cq.entries = cq.entries[1:]
			cq.mu.Unlock()
			return e
		}
		ch := cq.change
		cq.mu.Unlock()
		<-ch
	}
}

// WaitTimeout is Wait bounded by d.
func (cq *CQ) WaitTimeout(p transport.Ctx, d time.Duration) (transport.Completion, bool) {
	deadline := time.Now().Add(d)
	for {
		cq.mu.Lock()
		if len(cq.entries) > 0 {
			e := cq.entries[0]
			cq.entries = cq.entries[1:]
			cq.mu.Unlock()
			return e, true
		}
		ch := cq.change
		cq.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return transport.Completion{}, false
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// WaitNonEmpty blocks until the queue is non-empty or d elapses.
func (cq *CQ) WaitNonEmpty(p transport.Ctx, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		cq.mu.Lock()
		n := len(cq.entries)
		ch := cq.change
		cq.mu.Unlock()
		if n > 0 {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// Len returns the number of pending completions.
func (cq *CQ) Len() int {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return len(cq.entries)
}
