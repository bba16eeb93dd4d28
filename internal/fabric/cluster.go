// Package fabric simulates an RDMA-capable network fabric (nodes, NICs,
// links, one switch) on top of the dfi/internal/sim discrete-event kernel.
//
// It exposes the InfiniBand verb surface that the DFI implementation in the
// paper is written against: registered memory regions, reliable-connection
// queue pairs with one-sided WRITE/READ and remote atomics, two-sided
// SEND/RECV, completion queues with signaled/unsignaled work requests, and
// unreliable-datagram multicast with switch-side replication.
//
// Timing follows an analytic FIFO-server link model: each NIC has a TX and
// an RX queue with an availability time; a message reserves
// serialization time on the sender's TX queue, crosses the switch after a
// propagation + forwarding delay, and reserves serialization time on the
// receiver's RX queue (cut-through, so a single stream achieves full link
// bandwidth while incast congestion is modelled faithfully).
//
// WRITEs commit into target memory in increasing address order: the payload
// body is committed strictly before the trailing CommitTail bytes, so
// protocols that place metadata footers after the payload (as DFI does) are
// exercised against the real hazard.
package fabric

import (
	"fmt"
	"time"

	"dfi/internal/sim"
	"dfi/internal/transport"
)

// proc asserts the DES execution context. The fabric's blocking waits park
// on sim conds, so only *sim.Proc contexts (which satisfy transport.Ctx
// structurally) can drive them.
func proc(p transport.Ctx) *sim.Proc {
	sp, ok := p.(*sim.Proc)
	if !ok {
		panic("fabric: context is not a *sim.Proc (the DES fabric runs only under the sim kernel)")
	}
	return sp
}

// Cluster is a set of simulated nodes connected through one switch.
type Cluster struct {
	K      *sim.Kernel
	cfg    Config
	nodes  []*Node
	tracer Tracer

	// Freelists for the pooled op-events of the steady-state data path.
	// They are plain slices, not sync.Pools: the kernel is single-threaded
	// so no locking is needed, and — unlike sync.Pool — a GC cycle cannot
	// empty them, which would silently reintroduce a per-WRITE allocation.
	wopFree    []*writeOp
	ropFree    []*readOp
	srefFree   []*stagedRef
	stagedFree [28][]*stagedBuf // staging buffers of capacity 1<<class

	// regionFree recycles the memory of deregistered regions by exact
	// size (see regionGet). lastTouch is the latest instant at which any
	// step scheduled so far reads or writes memory; a buffer deregistered
	// now is quarantined until then, so operations posted before the
	// Deregister can never reach its next owner.
	regionFree map[int][]freeRegion
	lastTouch  sim.Time
}

// NewCluster creates n nodes attached to k using the given cost model.
func NewCluster(k *sim.Kernel, n int, cfg Config) *Cluster {
	c := &Cluster{K: k, cfg: cfg, regionFree: make(map[int][]freeRegion)}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, &Node{
			cluster:  c,
			id:       i,
			CPUScale: 1.0,
		})
	}
	return c
}

// Config returns the cluster's cost model.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the number of nodes.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NewSwitchNode adds an in-network-processing endpoint: a node that
// represents compute inside the switch (e.g. InfiniBand SHARP reduction
// engines). Its ingress is unbounded — each sender is limited only by its
// own link — which is exactly why in-network aggregation sidesteps the
// incast cap of a combiner flow's target (paper §4.2.3/§5.4 future work).
func (c *Cluster) NewSwitchNode() *Node {
	n := &Node{cluster: c, id: len(c.nodes), CPUScale: 1.0, UnboundedRx: true}
	c.nodes = append(c.nodes, n)
	return n
}

// Node is one simulated server: a CPU (with a speed scale for straggler
// experiments), one NIC with full-duplex TX/RX link queues, and registered
// memory.
type Node struct {
	cluster *Cluster
	id      int

	// CPUScale scales compute durations: 0.5 halves the node's CPU
	// frequency (the paper's straggler setup). Network costs are
	// unaffected.
	CPUScale float64

	// UnboundedRx marks switch-resident endpoints (in-network processing à
	// la SHARP): every ingress port absorbs at line rate, so arriving
	// traffic is not serialized through a single receive link.
	UnboundedRx bool

	txFreeAt sim.Time // next instant the TX link can start serializing
	rxFreeAt sim.Time

	atomicFreeAt sim.Time // responder-side serialization of remote atomics

	memBytes int64 // registered memory (accounting, §6.1.4)
	bytesTx  int64

	// postedRecvs counts receives posted on the node's queues and
	// multicast endpoints that no message has matched yet. Their buffers
	// may live in a region, and their commit instant is unknown until a
	// SEND arrives, so regions deregistered while any are pending are
	// not recycled.
	postedRecvs int

	txBusy time.Duration // cumulative serialization time reserved on TX
	rxBusy time.Duration
}

// TxBusy and RxBusy return the cumulative serialization time reserved on
// the node's links — busy/elapsed is the link utilization.
func (n *Node) TxBusy() time.Duration { return n.txBusy }

// RxBusy returns cumulative RX serialization time.
func (n *Node) RxBusy() time.Duration { return n.rxBusy }

// ID returns the node index within its cluster.
func (n *Node) ID() int { return n.id }

// Compute advances p's virtual time by d scaled by the node's CPU speed.
// All application CPU work in experiments must be charged through Compute
// so straggler scaling applies.
func (n *Node) Compute(p transport.Ctx, d time.Duration) {
	if n.CPUScale != 1.0 {
		d = time.Duration(float64(d) / n.CPUScale)
	}
	p.Sleep(d)
}

// RegisteredBytes returns the amount of memory registered on the node.
func (n *Node) RegisteredBytes() int64 { return n.memBytes }

// BytesTx returns the total payload bytes transmitted by the node's NIC.
func (n *Node) BytesTx() int64 { return n.bytesTx }

// reserveTx reserves serialization time on the node's TX link starting no
// earlier than `from`, returning the (start, end) of the reservation. Used
// for unreliable (multicast) sends, which have no end-to-end flow control.
func (n *Node) reserveTx(from sim.Time, ser time.Duration) (sim.Time, sim.Time) {
	start := from
	if n.txFreeAt > start {
		start = n.txFreeAt
	}
	end := start + ser
	n.txFreeAt = end
	return start, end
}

// reserveRx reserves serialization time on the node's RX link.
func (n *Node) reserveRx(from sim.Time, ser time.Duration) (sim.Time, sim.Time) {
	start := from
	if n.rxFreeAt > start {
		start = n.rxFreeAt
	}
	end := start + ser
	n.rxFreeAt = end
	return start, end
}

// reservePath reserves a reliable transfer of serialization time ser from
// node `from` to node `to`, starting no earlier than `earliest`, modelling
// cut-through switching. The sender's TX link is occupied for the
// message's serialization time; delivery additionally queues on the
// receiver's RX link, so incast congestion delays *delivery* (and with it
// every consumption-based signal: ring footers, credits, completive
// two-sided receives) without head-of-line blocking the sender's other
// destinations — NICs interleave QPs, and end-to-end flow control is the
// job of the protocols above (DFI's rings and credits).
func (c *Cluster) reservePath(from, to *Node, earliest sim.Time, ser time.Duration) (txStart, txEnd, rxEnd sim.Time) {
	txStart = earliest
	if from.txFreeAt > txStart {
		txStart = from.txFreeAt
	}
	txEnd = txStart + ser
	from.txFreeAt = txEnd
	from.txBusy += ser
	hop := c.cfg.Propagation + c.cfg.SwitchDelay
	rxStart := txStart + hop
	if !to.UnboundedRx && to.rxFreeAt > rxStart {
		rxStart = to.rxFreeAt
	}
	rxEnd = rxStart + ser
	if !to.UnboundedRx {
		to.rxFreeAt = rxEnd
		to.rxBusy += ser
	}
	return txStart, txEnd, rxEnd
}

// MemoryRegion is a registered memory region on one node, remotely
// accessible through queue pairs. Commit notifications wake local pollers
// (ConsumeWait-style loops) through the region's condition.
type MemoryRegion struct {
	node      *Node
	buf       []byte
	cond      *sim.Cond
	commitSeq uint64
}

// RegisterMemory registers size zeroed bytes on the node, reusing the
// memory of a deregistered region of the same size when one is out of
// quarantine. The registration is charged to the node's registered-memory
// accounting either way.
func (c *Cluster) RegisterMemory(n *Node, size int) *MemoryRegion {
	n.memBytes += int64(size)
	return &MemoryRegion{node: n, buf: c.regionGet(size), cond: sim.NewCond(c.K)}
}

// Deregister releases the region's memory from the accounting and hands
// it back to the cluster for reuse. Operations posted before the call
// still complete into the old memory; the handle itself is dead, and any
// later access through it panics. A second call is a no-op.
func (mr *MemoryRegion) Deregister() {
	if mr.buf == nil {
		return
	}
	n := mr.node
	n.memBytes -= int64(len(mr.buf))
	if n.postedRecvs == 0 {
		n.cluster.regionPut(mr.buf)
	}
	mr.buf = nil
}

// mem returns the backing memory, panicking on a deregistered handle.
func (mr *MemoryRegion) mem() []byte {
	if mr.buf == nil {
		panic("fabric: access through a deregistered MR")
	}
	return mr.buf
}

// Bytes exposes the region's backing memory. Local reads/writes by the
// owning node's processes are free (they model plain loads/stores).
func (mr *MemoryRegion) Bytes() []byte { return mr.mem() }

// Owner returns the owning node as a transport endpoint.
func (mr *MemoryRegion) Owner() transport.Endpoint { return mr.node }

// Store copies src into the region at off. The DES kernel is
// single-threaded, so a plain copy is already synchronized with remote
// verbs; concurrent backends lock here.
func (mr *MemoryRegion) Store(off int, src []byte) {
	copy(mr.mem()[off:off+len(src)], src)
}

// Load copies region bytes at off into dst (see Store).
func (mr *MemoryRegion) Load(off int, dst []byte) {
	copy(dst, mr.mem()[off:off+len(dst)])
}

// CommitSeq returns the region's commit counter, incremented on every
// remote commit. Pollers snapshot it before scanning and pass the
// snapshot to WaitCommit, which makes the scan-then-wait sequence free of
// lost wake-ups.
func (mr *MemoryRegion) CommitSeq() uint64 { return mr.commitSeq }

// WaitCommit parks p until the commit counter passes `since` or until d
// elapses, reporting whether new commits arrived. On wake-up it charges
// the configured polling-detection granularity.
func (mr *MemoryRegion) WaitCommit(p transport.Ctx, since uint64, d time.Duration) bool {
	sp := proc(p)
	deadline := sp.Now() + d
	for mr.commitSeq == since {
		remain := deadline - sp.Now()
		if remain <= 0 {
			return false
		}
		if !mr.cond.WaitTimeout(sp, remain) && mr.commitSeq == since {
			return false
		}
	}
	sp.Sleep(mr.node.cluster.cfg.DetectDelay)
	return true
}

// WaitChange parks p until the next remote commit into the region, or until
// d elapses; it reports whether a commit occurred. A local memory poller
// uses this as a simulation-efficient stand-in for spinning; prefer the
// CommitSeq/WaitCommit pair when work happens between scan and wait.
func (mr *MemoryRegion) WaitChange(p transport.Ctx, d time.Duration) bool {
	return mr.WaitCommit(p, mr.commitSeq, d)
}

// notify records a commit and wakes pollers.
func (mr *MemoryRegion) notify() {
	mr.commitSeq++
	mr.cond.Broadcast()
}

// Addr names a location inside a memory region for remote access. The
// struct is shared with the transport layer; the fabric's verbs assert
// the region back to its concrete type with mrOf.
type Addr = transport.Addr

// mrOf asserts an address's region to the fabric's concrete type.
func mrOf(a Addr) *MemoryRegion {
	mr, ok := a.MR.(*MemoryRegion)
	if !ok {
		panic("fabric: Addr does not reference a fabric memory region")
	}
	return mr
}

// sliceOf bounds-checks and returns the n-byte window at the address.
func sliceOf(a Addr, n int) []byte {
	buf := mrOf(a).mem()
	if a.Off < 0 || a.Off+n > len(buf) {
		panic(fmt.Sprintf("fabric: remote access [%d,%d) outside MR of %d bytes", a.Off, a.Off+n, len(buf)))
	}
	return buf[a.Off : a.Off+n]
}
