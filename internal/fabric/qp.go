package fabric

import (
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

// The verb vocabulary (op kinds, completions, work requests) lives in
// dfi/internal/transport so all backends share it; the fabric re-exports
// the names for its callers and tests.

// OpKind identifies the verb that produced a completion.
type OpKind = transport.OpKind

// Verb kinds reported in completions.
const (
	OpWrite       = transport.OpWrite
	OpRead        = transport.OpRead
	OpSend        = transport.OpSend
	OpRecv        = transport.OpRecv
	OpFetchAdd    = transport.OpFetchAdd
	OpCompareSwap = transport.OpCompareSwap
)

// Completion is one completion-queue entry.
type Completion = transport.Completion

// CQ is a completion queue. Entries are appended by the fabric at
// completion time; processes drain them with Poll or Wait. CQ implements
// transport.CompletionQueue; its blocking waits park on sim conds, so
// only *sim.Proc contexts can drive them.
//
// Entries live in a head-indexed slice reused ring-style: pops advance
// head instead of reslicing, and a push into an empty or exhausted queue
// rewinds to the front, so steady-state push/drain cycles never
// reallocate.
type CQ struct {
	cfg     *Config
	entries []Completion
	head    int
	cond    *sim.Cond
}

// NewCQ creates a completion queue on the cluster.
func (c *Cluster) NewCQ() *CQ {
	return &CQ{cfg: &c.cfg, cond: sim.NewCond(c.K)}
}

// append adds an entry without waking waiters, reusing the slice's front
// whenever the queue is empty (and compacting before a growing append
// would otherwise abandon the popped prefix).
func (cq *CQ) append(e Completion) {
	if cq.head == len(cq.entries) {
		cq.head = 0
		cq.entries = cq.entries[:0]
	} else if cq.head > 0 && len(cq.entries) == cap(cq.entries) {
		n := copy(cq.entries, cq.entries[cq.head:])
		clearCompletions(cq.entries[n:])
		cq.entries = cq.entries[:n]
		cq.head = 0
	}
	cq.entries = append(cq.entries, e)
}

func clearCompletions(cs []Completion) {
	for i := range cs {
		cs[i] = Completion{}
	}
}

// push appends an entry and wakes waiters. Called from event context.
func (cq *CQ) push(e Completion) {
	cq.append(e)
	cq.cond.Broadcast()
}

// pop removes the head entry; the caller must have checked Len() > 0.
// The vacated slot is zeroed so it retains no Buf reference.
func (cq *CQ) pop() Completion {
	e := cq.entries[cq.head]
	cq.entries[cq.head] = Completion{}
	cq.head++
	return e
}

// Poll drains one completion without blocking, charging one poll cost.
func (cq *CQ) Poll(p transport.Ctx) (Completion, bool) {
	p.Sleep(cq.cfg.PollCost)
	if cq.Len() == 0 {
		return Completion{}, false
	}
	return cq.pop(), true
}

// PollBatch drains up to len(out) completions into out, charging one poll
// cost per drained entry — virtual-time-identical to a Poll loop — and
// returns the count. An empty queue costs nothing.
func (cq *CQ) PollBatch(p transport.Ctx, out []Completion) int {
	n := 0
	for n < len(out) && cq.Len() > 0 {
		p.Sleep(cq.cfg.PollCost)
		out[n] = cq.pop()
		n++
	}
	return n
}

// Wait blocks until a completion is available and returns it.
func (cq *CQ) Wait(p transport.Ctx) Completion {
	sp := proc(p)
	sp.Sleep(cq.cfg.PollCost)
	for cq.Len() == 0 {
		cq.cond.Wait(sp)
		sp.Sleep(cq.cfg.PollCost)
	}
	return cq.pop()
}

// WaitTimeout blocks until a completion is available or d elapses,
// reporting whether a completion was returned.
func (cq *CQ) WaitTimeout(p transport.Ctx, d time.Duration) (Completion, bool) {
	sp := proc(p)
	sp.Sleep(cq.cfg.PollCost)
	deadline := sp.Now() + d
	for cq.Len() == 0 {
		remain := deadline - sp.Now()
		if remain <= 0 {
			return Completion{}, false
		}
		if !cq.cond.WaitTimeout(sp, remain) && cq.Len() == 0 {
			return Completion{}, false
		}
		sp.Sleep(cq.cfg.PollCost)
	}
	return cq.pop(), true
}

// WaitNonEmpty blocks until the queue holds at least one completion or d
// elapses, without consuming anything. It reports whether a completion is
// available.
func (cq *CQ) WaitNonEmpty(p transport.Ctx, d time.Duration) bool {
	sp := proc(p)
	sp.Sleep(cq.cfg.PollCost)
	deadline := sp.Now() + d
	for cq.Len() == 0 {
		remain := deadline - sp.Now()
		if remain <= 0 {
			return false
		}
		if !cq.cond.WaitTimeout(sp, remain) && cq.Len() == 0 {
			return false
		}
		sp.Sleep(cq.cfg.PollCost)
	}
	return true
}

// Len returns the number of pending completions.
func (cq *CQ) Len() int { return len(cq.entries) - cq.head }

// RecvWR is a posted receive buffer.
type RecvWR = transport.RecvWR

// arrival is a two-sided message that reached a QP before a receive was
// posted (RC queues it rather than dropping).
type arrival struct {
	data []byte
	id   uint64
}

// QP is one endpoint of a reliable connection between two nodes. Verbs are
// issued by processes running on the owner node; Peer returns the other
// endpoint. QP implements transport.Queue.
type QP struct {
	c     *Cluster
	owner *Node
	peer  *QP

	scq *CQ // send-side completions (WRITE/READ/SEND/atomics)
	rcq *CQ // receive-side completions (matched RECVs)

	recvq   []RecvWR
	arrived []arrival
	nextID  uint64

	// RC connections never reorder: fault-injected delay and jitter shift
	// deliveries but must preserve this QP's wire order. lastCommit is the
	// latest scheduled WRITE commit, lastArrive the latest scheduled SEND
	// delivery; later operations are clamped behind them.
	lastCommit sim.Time
	lastArrive sim.Time
}

// CreateQPPair connects nodes a and b with a reliable connection and
// returns the two endpoints.
func (c *Cluster) CreateQPPair(a, b *Node) (*QP, *QP) {
	qa := &QP{c: c, owner: a, scq: c.NewCQ(), rcq: c.NewCQ()}
	qb := &QP{c: c, owner: b, scq: c.NewCQ(), rcq: c.NewCQ()}
	qa.peer, qb.peer = qb, qa
	return qa, qb
}

// SendCQ returns the endpoint's send completion queue.
func (q *QP) SendCQ() transport.CompletionQueue { return q.scq }

// RecvCQ returns the endpoint's receive completion queue.
func (q *QP) RecvCQ() transport.CompletionQueue { return q.rcq }

// PostedRecvs returns the number of posted, unmatched receive buffers.
func (q *QP) PostedRecvs() int { return len(q.recvq) }

// WriteOptions controls an RDMA WRITE work request.
type WriteOptions = transport.WriteOptions

// Write posts a one-sided RDMA WRITE of src into dst on the peer node. It
// returns after the posting cost; the transfer proceeds asynchronously.
// The source buffer must not be modified until a signaled completion for
// this or a later WR on the same QP has been observed (exactly the
// selective-signaling contract real verbs impose).
func (q *QP) Write(p transport.Ctx, src []byte, dst Addr, opts WriteOptions) {
	q.writeOne(p, src, dst, opts, nil, 0)
}

// WriteWR describes one work request in a doorbell-batched WriteBatch post.
type WriteWR = transport.WriteWR

// WriteBatch posts the given WRITEs back-to-back with a single doorbell
// ring. Virtual timing, fault injection, RC ordering clamps and statistics
// are identical to posting each WR with Write in order — the saving is
// real-world cost only: the NIC staging snapshots of all WRs share one
// pooled buffer taken at post time instead of one allocation and one
// DMA-read event each. Callers must keep every source buffer unmodified
// until a signaled completion covering it is observed (the same
// selective-signaling contract Write imposes); that stability is what makes
// the post-time snapshot equal the per-WR DMA-time snapshot.
//
// Per-WR CommitTail is honored: each WR's tail bytes still commit strictly
// last within that WR's address range, so footer-after-payload ordering is
// preserved across a coalesced run of ring-segment writes.
func (q *QP) WriteBatch(p transport.Ctx, wrs []WriteWR) {
	if len(wrs) == 0 {
		return
	}
	if len(wrs) == 1 {
		q.Write(p, wrs[0].Src, wrs[0].Dst, wrs[0].Opts)
		return
	}
	total := 0
	for i := range wrs {
		total += len(wrs[i].Src)
	}
	st := q.c.stagedRefGet(len(wrs))
	st.buf = q.c.stagedGet(total)
	copyPayload := q.c.cfg.CopyPayload
	off := 0
	for i := range wrs {
		src := wrs[i].Src
		tail := wrs[i].Opts.CommitTail
		if tail > len(src) {
			tail = len(src)
		}
		stageInto(st.buf.b[off:off+len(src)], src, len(src)-tail, copyPayload)
		off += len(src)
	}
	off = 0
	for i := range wrs {
		q.writeOne(p, wrs[i].Src, wrs[i].Dst, wrs[i].Opts, st, off)
		off += len(wrs[i].Src)
	}
}

// writeOne implements Write. batch is nil for a standalone WRITE (the
// snapshot is then taken at DMA time, txEnd); for a doorbell-batched WRITE
// it is the shared pre-staged buffer and off this WR's offset within it.
// Each WR holds one reference on the batch, consumed by its final commit
// event (or immediately if the WR is fault-dropped).
func (q *QP) writeOne(p transport.Ctx, src []byte, dst Addr, opts WriteOptions, batch *stagedRef, off int) {
	cfg := &q.c.cfg
	mr := mrOf(dst)
	if mr.node != q.peer.owner {
		panic("fabric: WRITE destination MR not on peer node")
	}
	// Bounds-check now and bind the destination window: commits land in
	// this memory even if the region is deregistered before they fire.
	dstBuf := sliceOf(dst, len(src))
	q.owner.Compute(p, cfg.PostOverhead)

	k := q.c.K
	ser := cfg.serialization(len(src))
	startup := cfg.NICStartup
	if len(src) <= cfg.InlineThreshold && cfg.InlineSaving < startup {
		startup -= cfg.InlineSaving
	}
	_, txEnd, rxEnd := q.c.reservePath(q.owner, q.peer.owner, k.Now()+startup, ser)

	fv := q.c.fault(OpWrite, q.owner, q.peer.owner, rxEnd)
	deliverAt := rxEnd + fv.delay

	// Payload body commits just before the tail; tail commits last.
	tail := opts.CommitTail
	if tail > len(src) {
		tail = len(src)
	}
	body := len(src) - tail

	// RC connections deliver WRITEs in posting order: fault delay may push
	// a write later, but it must never let its stores interleave with (or
	// precede) those of an earlier write on the same QP — otherwise a
	// jitter-delayed retransmission overtaken by a later lap could leave
	// one segment's payload under another's footer. Clamp this write's
	// whole commit window (body included) behind the previous tail.
	if !fv.drop {
		earliest := deliverAt
		if tail > 0 && body > 0 {
			earliest -= cfg.serialization(tail)
		}
		if earliest <= q.lastCommit {
			deliverAt += q.lastCommit + 1 - earliest
		}
	}

	q.owner.bytesTx += int64(len(src))
	disp := Delivered
	if fv.drop {
		disp = Dropped
	}
	q.c.trace(OpWrite, q.owner, q.peer.owner, len(src), k.Now(), deliverAt, disp)

	n := len(src)
	if !fv.drop && !fv.duplicate {
		// Steady-state path (no fault touches this WR): the whole stage/
		// body/commit/ack pipeline rides one pooled op, so posting a WRITE
		// allocates nothing. Event push order matches the closure path
		// below exactly — stage, body, commit, ack — keeping (at, seq)
		// dispatch order byte-identical.
		w := q.c.getWriteOp()
		w.q, w.mr, w.dst = q, mr, dstBuf
		w.off = off
		w.n, w.body, w.tail = n, body, tail
		w.copyPayload = cfg.CopyPayload
		w.id = opts.ID
		if batch == nil {
			// The NIC finishes DMA-reading the source at txEnd: snapshot
			// then, into a pooled staging buffer. (Post-time snapshots are
			// tempting but wrong in both directions: they erase the
			// reuse-before-completion hazard real verbs have, and a commit
			// delayed by receiver RX queueing may fire after the writer has
			// lawfully restamped the slot for a later lap.)
			w.src = src
			w.own = stagedRef{refs: 1}
			w.st = &w.own
			k.AtOp(txEnd, w, wopStage)
		} else {
			w.st = batch
		}
		if tail > 0 && body > 0 && cfg.CopyPayload {
			// Body commits just before the tail, after staging completed.
			bodyAt := deliverAt - cfg.serialization(tail)
			if bodyAt <= txEnd {
				bodyAt = txEnd + 1
			}
			k.AtOp(bodyAt, w, wopBody)
		}
		k.AtOp(deliverAt, w, wopCommit)
		q.c.touch(deliverAt)
		q.lastCommit = deliverAt
		signaled := opts.Signaled && !fv.dropCompletion
		w.freeAtCommit = !signaled
		if signaled {
			// RC semantics: the completion is generated once the responder's
			// ACK returns, i.e. after remote delivery plus the return hop.
			ackAt := deliverAt + cfg.Propagation + cfg.SwitchDelay + cfg.CompletionDelay
			k.AtOp(ackAt, w, wopAck)
		}
		return
	}
	st := batch
	if fv.drop {
		// No commit will read the staging buffer: drop this WR's reference.
		if st != nil {
			st.release(q.c)
		}
	} else {
		if st == nil {
			st = &stagedRef{refs: 1}
			// The NIC finishes DMA-reading the source at txEnd: snapshot
			// then, into a pooled staging buffer.
			copyPayload := cfg.CopyPayload
			k.At(txEnd, func() {
				st.buf = q.c.stagedGet(n)
				stageInto(st.buf.b, src, body, copyPayload)
			})
		}
		// commit schedules the remote memory commit of the staged bytes with
		// delivery finishing at `at` (body strictly before tail, as the
		// NIC's increasing-address DMA order demands — fault delay shifts
		// both). The final event of the last commit recycles the staging
		// buffer.
		commit := func(at sim.Time) {
			q.c.touch(at)
			if tail > 0 && body > 0 {
				bodyAt := at - cfg.serialization(tail)
				if bodyAt <= txEnd {
					bodyAt = txEnd + 1
				}
				k.At(bodyAt, func() {
					if q.c.cfg.CopyPayload {
						copy(dstBuf[:body], st.buf.b[off:off+body])
					}
				})
			}
			k.At(at, func() {
				if q.c.cfg.CopyPayload && body > 0 && tail == 0 {
					copy(dstBuf[:body], st.buf.b[off:off+body])
				}
				if tail > 0 {
					copy(dstBuf[body:], st.buf.b[off+body:off+n])
				}
				mr.notify()
				st.release(q.c)
			})
		}
		commit(deliverAt)
		q.lastCommit = deliverAt
		if fv.duplicate {
			st.refs++
			dupAt := deliverAt + q.c.cfg.Faults.dupDelay()
			if tail > 0 && body > 0 && dupAt-cfg.serialization(tail) <= q.lastCommit {
				dupAt = q.lastCommit + cfg.serialization(tail) + 1
			}
			q.c.trace(OpWrite, q.owner, q.peer.owner, len(src), k.Now(), dupAt, Injected)
			commit(dupAt)
			q.lastCommit = dupAt
		}
	}
	if opts.Signaled && !fv.dropCompletion {
		// RC semantics: the completion is generated once the responder's
		// ACK returns, i.e. after remote delivery plus the return hop.
		// (A probabilistically dropped WRITE still completes — the loss is
		// modelled above the reliability layer; see fault.go. Only crashed
		// endpoints suppress completions.)
		ackAt := deliverAt + cfg.Propagation + cfg.SwitchDelay + cfg.CompletionDelay
		k.At(ackAt, func() {
			q.scq.push(Completion{ID: opts.ID, Op: OpWrite, Bytes: n})
		})
	}
}

// writeOp is the pooled event payload driving the steady-state WRITE
// pipeline (see writeOne). Steps fire in scheduler context via sim.Op.
type writeOp struct {
	q   *QP
	mr  *MemoryRegion // notified on commit
	dst []byte        // the n-byte destination window, bound at post time
	st  *stagedRef
	own stagedRef // standalone WRITEs point st here (one ref, no alloc)
	src []byte    // standalone WRITEs: snapshot source, read at txEnd

	off           int
	n, body, tail int
	id            uint64
	copyPayload   bool
	freeAtCommit  bool // unsignaled: commit is the last step
}

// writeOp pipeline steps (scheduled through Kernel.AtOp).
const (
	wopStage  uint8 = iota // snapshot src into the staging buffer (txEnd)
	wopBody                // commit the payload body (bodyAt, CopyPayload only)
	wopCommit              // commit tail/body, notify, release staging (deliverAt)
	wopAck                 // push the signaled completion (ackAt)
)

func (w *writeOp) RunOp(step uint8) {
	switch step {
	case wopStage:
		w.st.buf = w.q.c.stagedGet(w.n)
		stageInto(w.st.buf.b, w.src, w.body, w.copyPayload)
	case wopBody:
		copy(w.dst[:w.body], w.st.buf.b[w.off:w.off+w.body])
	case wopCommit:
		b := w.st.buf.b
		if w.copyPayload && w.body > 0 && w.tail == 0 {
			copy(w.dst[:w.body], b[w.off:w.off+w.body])
		}
		if w.tail > 0 {
			copy(w.dst[w.body:], b[w.off+w.body:w.off+w.n])
		}
		w.mr.notify()
		w.st.release(w.q.c)
		if w.freeAtCommit {
			putWriteOp(w)
		}
	case wopAck:
		w.q.scq.push(Completion{ID: w.id, Op: OpWrite, Bytes: w.n})
		putWriteOp(w)
	}
}

func (c *Cluster) getWriteOp() *writeOp {
	if n := len(c.wopFree); n > 0 {
		w := c.wopFree[n-1]
		c.wopFree[n-1] = nil
		c.wopFree = c.wopFree[:n-1]
		return w
	}
	return new(writeOp)
}

func putWriteOp(w *writeOp) {
	c := w.q.c
	*w = writeOp{}
	c.wopFree = append(c.wopFree, w)
}

// Read posts a one-sided RDMA READ of len(dst) bytes from src on the peer
// node into dst, returning after the posting cost. A signaled completion
// indicates dst holds the data.
//
// Small reads (≤ ControlBytes) travel on the control lane: like
// InfiniBand's service levels, they bypass the bulk-data FIFO so a footer
// probe or credit refresh is not queued behind megabytes of in-flight
// segments. Their (negligible) bytes still count toward the statistics.
func (q *QP) Read(p transport.Ctx, dst []byte, src Addr, signaled bool, id uint64) {
	cfg := &q.c.cfg
	if mrOf(src).node != q.peer.owner {
		panic("fabric: READ source MR not on peer node")
	}
	sliceOf(src, len(dst))
	q.owner.Compute(p, cfg.PostOverhead)

	k := q.c.K
	const reqBytes = 16
	serReq := cfg.serialization(reqBytes)
	serResp := cfg.serialization(len(dst))
	var respStart, rxEnd sim.Time
	if len(dst) <= ControlBytes {
		hop := cfg.Propagation + cfg.SwitchDelay
		reqRxEnd := k.Now() + cfg.NICStartup + serReq + hop
		respStart = reqRxEnd + cfg.NICStartup
		rxEnd = respStart + serResp + hop
	} else {
		var reqRxEnd sim.Time
		_, _, reqRxEnd = q.c.reservePath(q.owner, q.peer.owner, k.Now()+cfg.NICStartup, serReq)
		// Response: remote NIC DMA-reads memory and serializes on its TX link.
		respStart, _, rxEnd = q.c.reservePath(q.peer.owner, q.owner, reqRxEnd+cfg.NICStartup, serResp)
	}

	fv := q.c.fault(OpRead, q.owner, q.peer.owner, rxEnd)
	deliverAt := rxEnd + fv.delay

	q.peer.owner.bytesTx += int64(len(dst))
	disp := Delivered
	if fv.drop {
		disp = Dropped
	}
	q.c.trace(OpRead, q.owner, q.peer.owner, len(dst), k.Now(), deliverAt, disp)

	// A dropped READ loses the response, and with it the completion: the
	// caller must recover with a timed wait and reissue.
	if fv.drop {
		return
	}
	r := q.c.getReadOp()
	r.q, r.dst, r.src = q, dst, sliceOf(src, len(dst))
	r.id, r.signaled = id, signaled
	k.AtOp(respStart, r, ropStage)
	k.AtOp(deliverAt, r, ropDeliver)
	q.c.touch(deliverAt)
}

// readOp is the pooled event payload driving the READ response pipeline:
// the remote NIC snapshots the source at respStart, and the response
// lands (data copy, completion) at deliverAt.
type readOp struct {
	q        *QP
	dst, src []byte
	staged   *stagedBuf
	id       uint64
	signaled bool
}

const (
	ropStage   uint8 = iota // snapshot the remote source (respStart)
	ropDeliver              // deliver the response into dst (deliverAt)
)

func (r *readOp) RunOp(step uint8) {
	if step == ropStage {
		r.staged = r.q.c.stagedGet(len(r.dst))
		copy(r.staged.b, r.src)
		return
	}
	copy(r.dst, r.staged.b)
	r.q.c.stagedPut(r.staged)
	if r.signaled {
		r.q.scq.push(Completion{ID: r.id, Op: OpRead, Bytes: len(r.dst)})
	}
	putReadOp(r)
}

func (c *Cluster) getReadOp() *readOp {
	if n := len(c.ropFree); n > 0 {
		r := c.ropFree[n-1]
		c.ropFree[n-1] = nil
		c.ropFree = c.ropFree[:n-1]
		return r
	}
	return new(readOp)
}

func putReadOp(r *readOp) {
	c := r.q.c
	*r = readOp{}
	c.ropFree = append(c.ropFree, r)
}

// ReadSync performs a signaled READ and blocks until it completes,
// returning the round-trip time. Any completions already pending on the
// send CQ are drained to the caller via the discard list semantics; callers
// that interleave ReadSync with other signaled WRs should use Read+Wait
// directly.
func (q *QP) ReadSync(p transport.Ctx, dst []byte, src Addr) time.Duration {
	start := p.Now()
	q.nextID++
	id := q.nextID | 1<<63
	q.Read(p, dst, src, true, id)
	for {
		c := q.scq.Wait(p)
		if c.ID == id {
			break
		}
		// Preserve unrelated completions (e.g. signaled writes).
		q.scq.append(c)
	}
	return p.Now() - start
}

// FetchAdd atomically adds delta to the 8-byte counter at dst on the peer
// node and returns the previous value. It blocks the caller for the full
// round trip (the paper's tuple sequencer uses it synchronously). Remote
// atomics to the same NIC serialize, which models sequencer contention.
func (q *QP) FetchAdd(p transport.Ctx, dst Addr, delta uint64) uint64 {
	v, _ := q.FetchAddChecked(p, dst, delta)
	return v
}

// FetchAddChecked is FetchAdd with an explicit success indicator: ok is
// false when the atomic could not execute because an endpoint is crashed
// (the QP would surface an error completion). Callers that must
// distinguish "previous value was 0" from "sequencer node is dead" — the
// ordered-multicast source fetching sequence numbers — use this form.
func (q *QP) FetchAddChecked(p transport.Ctx, dst Addr, delta uint64) (uint64, bool) {
	cfg := &q.c.cfg
	mr := mrOf(dst)
	if mr.node != q.peer.owner {
		panic("fabric: atomic destination MR not on peer node")
	}
	b := sliceOf(dst, 8)
	q.owner.Compute(p, cfg.PostOverhead)

	k := q.c.K
	const atomicBytes = 16
	ser := cfg.serialization(atomicBytes)
	hop := cfg.Propagation + cfg.SwitchDelay
	arrive := k.Now() + cfg.NICStartup + ser + hop // control lane

	fv := q.c.fault(OpFetchAdd, q.owner, q.peer.owner, arrive)
	if fv.dropCompletion {
		// One endpoint is crashed: the atomic never executes. Model the
		// QP error completion as a fixed stall returning zero.
		q.c.trace(OpFetchAdd, q.owner, q.peer.owner, 8, k.Now(), k.Now()+crashAtomicPenalty, Dropped)
		p.Sleep(crashAtomicPenalty)
		return 0, false
	}
	arrive += fv.delay

	// Serialize concurrent atomics at the responder NIC.
	execStart := arrive
	if q.peer.owner.atomicFreeAt > execStart {
		execStart = q.peer.owner.atomicFreeAt
	}
	execEnd := execStart + cfg.AtomicRemoteCost
	q.peer.owner.atomicFreeAt = execEnd

	arriveResp := execEnd + ser + hop // control lane
	if fv.drop {
		// "Dropped" atomics are transport retries: the op executes exactly
		// once, the caller just pays an extra round trip for the redo.
		arriveResp += ser + hop + ser + hop
	}

	q.c.trace(OpFetchAdd, q.owner, q.peer.owner, 8, k.Now(), execEnd, Delivered)
	var old uint64
	q.c.touch(execEnd)
	k.At(execEnd, func() {
		old = le64(b)
		putLE64(b, old+delta)
		mr.notify()
	})
	done := sim.NewCond(k)
	k.At(arriveResp, done.Broadcast)
	done.Wait(proc(p))
	return old, true
}

// CompareSwap atomically replaces the 8-byte value at dst with swap if it
// equals expect, returning the previous value.
func (q *QP) CompareSwap(p transport.Ctx, dst Addr, expect, swap uint64) uint64 {
	cfg := &q.c.cfg
	mr := mrOf(dst)
	if mr.node != q.peer.owner {
		panic("fabric: atomic destination MR not on peer node")
	}
	b := sliceOf(dst, 8)
	q.owner.Compute(p, cfg.PostOverhead)

	k := q.c.K
	const atomicBytes = 16
	ser := cfg.serialization(atomicBytes)
	hop := cfg.Propagation + cfg.SwitchDelay
	arrive := k.Now() + cfg.NICStartup + ser + hop // control lane

	fv := q.c.fault(OpCompareSwap, q.owner, q.peer.owner, arrive)
	if fv.dropCompletion {
		// Crashed endpoint: see FetchAdd.
		q.c.trace(OpCompareSwap, q.owner, q.peer.owner, 8, k.Now(), k.Now()+crashAtomicPenalty, Dropped)
		p.Sleep(crashAtomicPenalty)
		return 0
	}
	arrive += fv.delay

	execStart := arrive
	if q.peer.owner.atomicFreeAt > execStart {
		execStart = q.peer.owner.atomicFreeAt
	}
	execEnd := execStart + cfg.AtomicRemoteCost
	q.peer.owner.atomicFreeAt = execEnd
	arriveResp := execEnd + ser + hop // control lane
	if fv.drop {
		arriveResp += ser + hop + ser + hop // transport retry, see FetchAdd
	}

	q.c.trace(OpCompareSwap, q.owner, q.peer.owner, 8, k.Now(), execEnd, Delivered)
	var old uint64
	q.c.touch(execEnd)
	k.At(execEnd, func() {
		old = le64(b)
		if old == expect {
			putLE64(b, swap)
		}
		mr.notify()
	})
	done := sim.NewCond(k)
	k.At(arriveResp, done.Broadcast)
	done.Wait(proc(p))
	return old
}

// PostRecv posts a receive buffer for two-sided communication. If a
// message already arrived unmatched (RC queues them), it is delivered
// immediately.
func (q *QP) PostRecv(buf []byte, id uint64) {
	if len(q.arrived) > 0 {
		a := q.arrived[0]
		q.arrived = q.arrived[1:]
		n := copy(buf, a.data)
		q.rcq.push(Completion{ID: id, Op: OpRecv, Bytes: n, Value: a.id, Buf: buf})
		return
	}
	q.recvq = append(q.recvq, RecvWR{Buf: buf, ID: id})
	q.owner.postedRecvs++
}

// Send posts a two-sided SEND of src to the peer endpoint. The message is
// delivered into the peer's next posted receive buffer; with reliable
// connections an early message waits for a receive to be posted.
func (q *QP) Send(p transport.Ctx, src []byte, signaled bool, id uint64) {
	cfg := &q.c.cfg
	q.owner.Compute(p, cfg.PostOverhead)

	k := q.c.K
	ser := cfg.serialization(len(src))
	startup := cfg.NICStartup
	if len(src) <= cfg.InlineThreshold && cfg.InlineSaving < startup {
		startup -= cfg.InlineSaving
	}
	_, txEnd, rxEnd := q.c.reservePath(q.owner, q.peer.owner, k.Now()+startup, ser)

	fv := q.c.fault(OpSend, q.owner, q.peer.owner, rxEnd)
	deliverAt := rxEnd + fv.delay
	if fv.drop && !fv.dropCompletion {
		// RC queue pairs are hardware-reliable: a lost SEND packet is
		// retransmitted by the NIC and surfaces as extra latency, not as
		// message loss. Only UD multicast (MulticastGroup.Send) and
		// crashed endpoints genuinely lose SENDs.
		deliverAt += ser + 2*(cfg.Propagation+cfg.SwitchDelay)
		fv.drop = false
	}
	// RC SENDs arrive in posting order (see the WRITE ordering clamp).
	if !fv.drop && deliverAt <= q.lastArrive {
		deliverAt = q.lastArrive + 1
	}

	q.owner.bytesTx += int64(len(src))
	disp := Delivered
	if fv.drop {
		disp = Dropped
	}
	q.c.trace(OpSend, q.owner, q.peer.owner, len(src), k.Now(), deliverAt, disp)

	var staged []byte
	q.c.touch(txEnd)
	k.At(txEnd, func() {
		staged = make([]byte, len(src))
		if q.c.cfg.CopyPayload {
			copy(staged, src)
		} else {
			// Timing-only mode: keep the leading bytes (message headers)
			// so protocol metadata survives, drop the payload copy.
			n := len(src)
			if n > 64 {
				n = 64
			}
			copy(staged[:n], src[:n])
		}
	})
	deliver := func() {
		peer := q.peer
		if len(peer.recvq) > 0 {
			wr := peer.recvq[0]
			peer.recvq = peer.recvq[1:]
			peer.owner.postedRecvs--
			n := copy(wr.Buf, staged)
			peer.rcq.push(Completion{ID: wr.ID, Op: OpRecv, Bytes: n, Value: id, Buf: wr.Buf})
		} else {
			peer.arrived = append(peer.arrived, arrival{data: staged, id: id})
		}
	}
	if !fv.drop {
		k.At(deliverAt, deliver)
		q.lastArrive = deliverAt
		if fv.duplicate {
			dupAt := deliverAt + q.c.cfg.Faults.dupDelay()
			q.c.trace(OpSend, q.owner, q.peer.owner, len(src), k.Now(), dupAt, Injected)
			k.At(dupAt, deliver)
			q.lastArrive = dupAt
		}
	}
	if signaled && !fv.dropCompletion {
		// Like WRITE: a probabilistically dropped SEND still completes
		// locally; only crashed endpoints go silent.
		n := len(src)
		ackAt := deliverAt + cfg.Propagation + cfg.SwitchDelay + cfg.CompletionDelay
		k.At(ackAt, func() {
			q.scq.push(Completion{ID: id, Op: OpSend, Bytes: n})
		})
	}
}

// le64 and putLE64 are little-endian 8-byte codecs used across the fabric
// and the DFI ring protocol.
func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
