package chanloop

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"time"

	"dfi/internal/transport"
)

// Queue is one end of a reliable in-process queue pair. A worker
// goroutine drains posted ops in order, giving the RC guarantee: work
// requests on one queue execute in posting order, whatever they are.
type Queue struct {
	net   *Net
	owner *Endpoint
	peer  *Queue

	scq *CQ
	rcq *CQ

	ops chan func()

	// Two-sided receive state, locked because the owner posts receives
	// while the peer's worker delivers sends.
	rmu     sync.Mutex
	recvq   []transport.RecvWR
	arrived []arrival

	nextID uint64
}

type arrival struct {
	data *stageBuf
	id   uint64
}

// Dial connects endpoints a and b with a queue pair, starting one worker
// goroutine per end. Workers live for the lifetime of the process (the
// backend is built for in-process tests and tools; a Close lifecycle can
// ride along with the socket backend).
func (n *Net) Dial(a, b transport.Endpoint) (transport.Queue, transport.Queue) {
	qa := &Queue{net: n, owner: asEndpoint(a), scq: newCQ(), rcq: newCQ(), ops: make(chan func(), opsBuffer)}
	qb := &Queue{net: n, owner: asEndpoint(b), scq: newCQ(), rcq: newCQ(), ops: make(chan func(), opsBuffer)}
	qa.peer, qb.peer = qb, qa
	go qa.run()
	go qb.run()
	return qa, qb
}

func (q *Queue) run() {
	for op := range q.ops {
		op()
	}
}

// SendCQ returns the queue's send-side completion queue.
func (q *Queue) SendCQ() transport.CompletionQueue { return q.scq }

// RecvCQ returns the queue's receive-side completion queue.
func (q *Queue) RecvCQ() transport.CompletionQueue { return q.rcq }

// Write posts a one-sided WRITE of src into dst on the peer's region.
// The source buffer is snapshotted synchronously (valid under the
// selective-signaling contract) into a recycled staging buffer; the
// commit happens on the worker, body strictly before the CommitTail
// bytes, in one region-lock hold, and then returns the buffer.
func (q *Queue) Write(p transport.Ctx, src []byte, dst transport.Addr, opts transport.WriteOptions) {
	sb := getStage(len(src))
	copy(sb.b, src)
	q.postWrite(sb, dst, opts)
}

// WriteBatch posts the given WRITEs back-to-back, each snapshotted as
// by Write.
func (q *Queue) WriteBatch(p transport.Ctx, wrs []transport.WriteWR) {
	for i := range wrs {
		q.Write(p, wrs[i].Src, wrs[i].Dst, wrs[i].Opts)
	}
}

func (q *Queue) postWrite(sb *stageBuf, dst transport.Addr, opts transport.WriteOptions) {
	r := asRegion(dst)
	if r.owner != q.peer.owner {
		panic("chanloop: WRITE destination region not on peer endpoint")
	}
	posted := q.net.now()
	q.ops <- func() {
		staged := sb.b
		off := dst.Off
		n := len(staged)
		tail := opts.CommitTail
		if tail > n {
			tail = n
		}
		body := n - tail
		r.commit(func(buf []byte) {
			// One lock hold applies body then tail: a consumer can never
			// observe the tail (footer) without the body it covers.
			copy(buf[off:off+body], staged[:body])
			if tail > 0 {
				copy(buf[off+body:off+n], staged[body:])
			}
		})
		putStage(sb)
		q.net.trace(transport.OpWrite, q.owner.id, q.peer.owner.id, n, posted, q.net.now())
		if opts.Signaled {
			q.scq.push(transport.Completion{ID: opts.ID, Op: transport.OpWrite, Bytes: n})
		}
	}
}

// Read posts a one-sided READ of len(dst) bytes from src into dst. The
// caller must not touch dst until the completion arrives (the CQ push
// provides the happens-before edge).
func (q *Queue) Read(p transport.Ctx, dst []byte, src transport.Addr, signaled bool, id uint64) {
	r := asRegion(src)
	if r.owner != q.peer.owner {
		panic("chanloop: READ source region not on peer endpoint")
	}
	posted := q.net.now()
	q.ops <- func() {
		r.Load(src.Off, dst)
		q.net.trace(transport.OpRead, q.owner.id, q.peer.owner.id, len(dst), posted, q.net.now())
		if signaled {
			q.scq.push(transport.Completion{ID: id, Op: transport.OpRead, Bytes: len(dst)})
		}
	}
}

// ReadSync performs a signaled READ and blocks until it completes,
// returning the elapsed wall-clock time.
func (q *Queue) ReadSync(p transport.Ctx, dst []byte, src transport.Addr) time.Duration {
	start := p.Now()
	q.nextID++
	id := q.nextID | 1<<63
	q.Read(p, dst, src, true, id)
	for {
		c := q.scq.Wait(p)
		if c.ID == id {
			break
		}
		q.scq.requeue(c)
	}
	return p.Now() - start
}

// FetchAdd atomically adds delta to the 8-byte counter at dst and
// returns the previous value, blocking for the reply. Ordering with
// earlier WRITEs on the same queue holds because the op runs on the
// same worker; serialization across queues comes from the region lock.
func (q *Queue) FetchAdd(p transport.Ctx, dst transport.Addr, delta uint64) uint64 {
	v, _ := q.FetchAddChecked(p, dst, delta)
	return v
}

// FetchAddChecked is FetchAdd with an explicit success indicator; on
// chanloop endpoints never crash, so ok is always true.
func (q *Queue) FetchAddChecked(p transport.Ctx, dst transport.Addr, delta uint64) (uint64, bool) {
	r := asRegion(dst)
	if r.owner != q.peer.owner {
		panic("chanloop: atomic destination region not on peer endpoint")
	}
	posted := q.net.now()
	reply := make(chan uint64, 1)
	q.ops <- func() {
		var old uint64
		r.commit(func(buf []byte) {
			old = binary.LittleEndian.Uint64(buf[dst.Off : dst.Off+8])
			binary.LittleEndian.PutUint64(buf[dst.Off:dst.Off+8], old+delta)
		})
		q.net.trace(transport.OpFetchAdd, q.owner.id, q.peer.owner.id, 8, posted, q.net.now())
		reply <- old
	}
	return <-reply, true
}

// CompareSwap atomically replaces the counter at dst with swap when it
// equals expect, returning the previous value.
func (q *Queue) CompareSwap(p transport.Ctx, dst transport.Addr, expect, swap uint64) uint64 {
	r := asRegion(dst)
	if r.owner != q.peer.owner {
		panic("chanloop: atomic destination region not on peer endpoint")
	}
	posted := q.net.now()
	reply := make(chan uint64, 1)
	q.ops <- func() {
		var old uint64
		r.commit(func(buf []byte) {
			old = binary.LittleEndian.Uint64(buf[dst.Off : dst.Off+8])
			if old == expect {
				binary.LittleEndian.PutUint64(buf[dst.Off:dst.Off+8], swap)
			}
		})
		q.net.trace(transport.OpCompareSwap, q.owner.id, q.peer.owner.id, 8, posted, q.net.now())
		reply <- old
	}
	return <-reply
}

// Send posts a two-sided SEND of src to the peer. Reliable semantics: a
// message arriving before a receive is posted waits in the peer's
// arrival queue.
func (q *Queue) Send(p transport.Ctx, src []byte, signaled bool, id uint64) {
	sb := getStage(len(src))
	copy(sb.b, src)
	n := len(src)
	posted := q.net.now()
	q.ops <- func() {
		q.peer.deliver(sb, id)
		q.net.trace(transport.OpSend, q.owner.id, q.peer.owner.id, n, posted, q.net.now())
		if signaled {
			q.scq.push(transport.Completion{ID: id, Op: transport.OpSend, Bytes: n})
		}
	}
}

// deliver hands an arrived message (a staging buffer, which deliver now
// owns) to a posted receive, or queues it.
func (q *Queue) deliver(data *stageBuf, sendID uint64) {
	q.rmu.Lock()
	if len(q.recvq) > 0 {
		wr := q.recvq[0]
		q.recvq = q.recvq[1:]
		q.rmu.Unlock()
		n := copy(wr.Buf, data.b)
		putStage(data)
		q.rcq.push(transport.Completion{ID: wr.ID, Op: transport.OpRecv, Bytes: n, Value: sendID, Buf: wr.Buf})
		return
	}
	q.arrived = append(q.arrived, arrival{data: data, id: sendID})
	q.rmu.Unlock()
}

// PostRecv posts a receive buffer; a queued early arrival is consumed
// immediately.
func (q *Queue) PostRecv(buf []byte, id uint64) {
	q.rmu.Lock()
	if len(q.arrived) > 0 {
		a := q.arrived[0]
		q.arrived = q.arrived[1:]
		q.rmu.Unlock()
		n := copy(buf, a.data.b)
		putStage(a.data)
		q.rcq.push(transport.Completion{ID: id, Op: transport.OpRecv, Bytes: n, Value: a.id, Buf: buf})
		return
	}
	q.recvq = append(q.recvq, transport.RecvWR{Buf: buf, ID: id})
	q.rmu.Unlock()
}

// stageBuf boxes a staging buffer. Ops capture the 8-byte pointer
// rather than the 24-byte slice, which keeps every posted op's closure
// one size class smaller.
type stageBuf struct{ b []byte }

// stagePool recycles the snapshots WRITEs and SENDs take at post time:
// one free list per power-of-two capacity class. Posters take buffers
// and workers return them once the commit or delivery has copied them
// out, so a streaming flow reuses a handful of buffers instead of
// allocating one per segment.
//
// The pool is process-wide rather than per Net, because a Net lives only
// as long as the flows built on it (tests and benchmarks make one per
// run) and a per-Net list would start empty every time. It is a locked
// slice, not a sync.Pool: a GC cycle empties a sync.Pool, and under the
// race detector it drops Puts at random, so reuse — and the allocation
// bound that tests it — would depend on timing. Each class retains at
// most stageRetain bytes (at least one buffer); the rest are left to the
// collector.
var stagePool struct {
	mu   sync.Mutex
	free [28][]*stageBuf
}

const stageRetain = 8 << 20

// getStage returns a staging buffer of length n with unspecified
// contents.
func getStage(n int) *stageBuf {
	if n <= 0 {
		return &stageBuf{}
	}
	class := bits.Len(uint(n - 1))
	if class >= len(stagePool.free) {
		return &stageBuf{b: make([]byte, n)}
	}
	stagePool.mu.Lock()
	if fl := stagePool.free[class]; len(fl) > 0 {
		sb := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		stagePool.free[class] = fl[:len(fl)-1]
		stagePool.mu.Unlock()
		sb.b = sb.b[:n]
		return sb
	}
	stagePool.mu.Unlock()
	return &stageBuf{b: make([]byte, n, 1<<class)}
}

// putStage recycles a buffer from getStage; the caller must not touch it
// again. Buffers whose capacity is not a size class are left to the
// collector.
func putStage(sb *stageBuf) {
	c := cap(sb.b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if class >= len(stagePool.free) {
		return
	}
	stagePool.mu.Lock()
	if fl := stagePool.free[class]; len(fl) == 0 || (len(fl)+1)<<class <= stageRetain {
		stagePool.free[class] = append(fl, sb)
	}
	stagePool.mu.Unlock()
}
