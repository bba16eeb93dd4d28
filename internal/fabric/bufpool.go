package fabric

import (
	"math/bits"

	"dfi/internal/sim"
)

// The fabric snapshots ("stages") the bytes a NIC would DMA-read for every
// WRITE/READ in flight. Staging buffers are recycled through size-classed
// per-cluster freelists instead of allocating per operation: a bandwidth
// flow stages one 8 KiB segment per WRITE, so the data path would otherwise
// allocate at wire rate. The freelists are plain slices, not sync.Pools:
// the kernel serializes all access, and — unlike sync.Pool — a GC cycle
// cannot empty them, which would silently reintroduce per-WRITE
// allocations into the steady state.

// stagedBuf boxes a recycled staging buffer; passing the box (rather than
// the slice) around avoids re-boxing on every recycle.
type stagedBuf struct{ b []byte }

// stagedGet returns a staging buffer of length n backed by a recycled
// power-of-two allocation. Recycled buffers are not zeroed: callers must
// only read back regions they wrote (stageInto documents the contract).
func (c *Cluster) stagedGet(n int) *stagedBuf {
	if n <= 0 {
		return &stagedBuf{}
	}
	class := bits.Len(uint(n - 1))
	if class >= len(c.stagedFree) {
		return &stagedBuf{b: make([]byte, n)}
	}
	if fl := c.stagedFree[class]; len(fl) > 0 {
		sb := fl[len(fl)-1]
		fl[len(fl)-1] = nil
		c.stagedFree[class] = fl[:len(fl)-1]
		sb.b = sb.b[:n]
		return sb
	}
	return &stagedBuf{b: make([]byte, n, 1<<class)}
}

// stagedPut recycles a buffer obtained from stagedGet. Buffers whose
// capacity is not an exact size class (oversized one-off allocations) are
// dropped on the floor.
func (c *Cluster) stagedPut(sb *stagedBuf) {
	cp := cap(sb.b)
	if cp == 0 || cp&(cp-1) != 0 {
		return
	}
	class := bits.Len(uint(cp)) - 1
	if class >= len(c.stagedFree) {
		return
	}
	sb.b = sb.b[:cp]
	c.stagedFree[class] = append(c.stagedFree[class], sb)
}

// stagedRef counts the scheduled commit events still reading a shared
// staging buffer; the last release returns it to the cluster freelist. All
// accesses happen in scheduler or process context of one kernel, which the
// baton-passing handoff serializes.
type stagedRef struct {
	buf    *stagedBuf
	refs   int
	pooled bool // obtained from the cluster freelist (vs embedded in a writeOp)
}

func (r *stagedRef) release(c *Cluster) {
	r.refs--
	if r.refs == 0 {
		if r.buf != nil {
			c.stagedPut(r.buf)
			r.buf = nil
		}
		if r.pooled {
			r.pooled = false
			c.srefFree = append(c.srefFree, r)
		}
	}
}

// stagedRefGet returns a recycled reference holder initialized to refs
// references; release recycles it when the count drains.
func (c *Cluster) stagedRefGet(refs int) *stagedRef {
	var r *stagedRef
	if n := len(c.srefFree); n > 0 {
		r = c.srefFree[n-1]
		c.srefFree[n-1] = nil
		c.srefFree = c.srefFree[:n-1]
	} else {
		r = new(stagedRef)
	}
	r.refs = refs
	r.pooled = true
	return r
}

// stageInto snapshots the bytes the NIC would DMA-read into dst. With
// payload copying disabled only the trailing tail bytes (protocol metadata)
// starting at body are retained; the body region of a recycled buffer then
// holds stale bytes, which is safe because commit copies the body back out
// only when CopyPayload is set.
func stageInto(dst, src []byte, body int, copyPayload bool) {
	if copyPayload {
		copy(dst, src)
		return
	}
	copy(dst[body:], src[body:])
}

// Registered regions are recycled too. A flow registers its rings when it
// opens and deregisters them when it ends, so a cluster running flow after
// flow would otherwise allocate (and zero) every ring afresh. Real RDMA
// stacks amortize registration the same way: a freed region goes back to
// a pool instead of to the OS.
//
// The reuse-before-completion hazard is modelled, not assumed away: a
// WRITE reads its source at txEnd and commits at deliverAt, both possibly
// after the region involved was deregistered. Every verb schedules all of
// its memory-touching steps when it is posted, so the cluster keeps the
// latest such instant as one running maximum (lastTouch). A deregistered
// buffer is stamped with it and handed out again only once the kernel's
// clock has passed the stamp.

// freeRegion is a deregistered region's memory awaiting reuse.
type freeRegion struct {
	buf   []byte
	after sim.Time // reusable once the clock is strictly past this
}

// touch records that a scheduled step reads or writes memory at t.
func (c *Cluster) touch(t sim.Time) {
	if t > c.lastTouch {
		c.lastTouch = t
	}
}

// regionGet returns size zeroed bytes for a new region: the oldest
// recycled buffer of exactly that size if its quarantine has expired,
// otherwise a fresh allocation. Stamps are taken from a running maximum,
// so they never decrease along a size's list; if its head is not ready,
// no entry is.
func (c *Cluster) regionGet(size int) []byte {
	fl := c.regionFree[size]
	if len(fl) == 0 || fl[0].after >= c.K.Now() {
		return make([]byte, size)
	}
	b := fl[0].buf
	n := copy(fl, fl[1:])
	fl[n] = freeRegion{}
	c.regionFree[size] = fl[:n]
	clear(b)
	return b
}

// regionPut queues a deregistered region's memory for reuse once every
// step scheduled so far has run.
func (c *Cluster) regionPut(b []byte) {
	c.regionFree[len(b)] = append(c.regionFree[len(b)], freeRegion{buf: b, after: c.lastTouch})
}
