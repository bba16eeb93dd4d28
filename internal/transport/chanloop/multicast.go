package chanloop

import (
	"sync"
	"sync/atomic"

	"dfi/internal/transport"
)

// Group is an unreliable in-process multicast group. Send replicates to
// every attached member synchronously in the caller's goroutine; a
// member with no posted receive drops the message and counts it, the UD
// semantics the replicate flow's credit/NACK machinery is built for.
type Group struct {
	net *Net

	mu       sync.Mutex
	members  []*GroupEndpoint
	detached []bool
}

// GroupEndpoint is one member's receive side.
type GroupEndpoint struct {
	owner *Endpoint

	mu    sync.Mutex
	recvq []transport.RecvWR
	rcq   *CQ

	drops atomic.Int64
}

// Multicast creates a multicast group over the members.
func (n *Net) Multicast(members ...transport.Endpoint) transport.Group {
	g := &Group{net: n}
	for _, m := range members {
		g.members = append(g.members, &GroupEndpoint{owner: asEndpoint(m), rcq: newCQ()})
	}
	g.detached = make([]bool, len(g.members))
	return g
}

// Send multicasts src to every attached member with a posted receive.
func (g *Group) Send(p transport.Ctx, from transport.Endpoint, src []byte, excludeSelf bool) {
	sender := asEndpoint(from)
	g.mu.Lock()
	members := make([]*GroupEndpoint, len(g.members))
	copy(members, g.members)
	detached := make([]bool, len(g.detached))
	copy(detached, g.detached)
	g.mu.Unlock()
	posted := g.net.now()
	for i, ep := range members {
		if detached[i] {
			continue
		}
		if excludeSelf && ep.owner == sender {
			continue
		}
		g.net.trace(transport.OpSend, sender.id, ep.owner.id, len(src), posted, g.net.now())
		ep.deliver(src)
	}
}

func (ep *GroupEndpoint) deliver(data []byte) {
	ep.mu.Lock()
	if len(ep.recvq) == 0 {
		ep.mu.Unlock()
		ep.drops.Add(1)
		return
	}
	wr := ep.recvq[0]
	ep.recvq = ep.recvq[1:]
	ep.mu.Unlock()
	n := copy(wr.Buf, data)
	ep.rcq.push(transport.Completion{ID: wr.ID, Op: transport.OpRecv, Bytes: n, Buf: wr.Buf})
}

// PostRecv posts a receive buffer at the member.
func (ep *GroupEndpoint) PostRecv(buf []byte, id uint64) {
	ep.mu.Lock()
	ep.recvq = append(ep.recvq, transport.RecvWR{Buf: buf, ID: id})
	ep.mu.Unlock()
}

// RecvCQ returns the member's receive completion queue.
func (ep *GroupEndpoint) RecvCQ() transport.CompletionQueue { return ep.rcq }

// DropCount returns messages dropped for lack of a posted receive.
func (ep *GroupEndpoint) DropCount() int64 { return ep.drops.Load() }

// Member returns member i.
func (g *Group) Member(i int) transport.GroupEndpoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members[i]
}

// Detach removes member i from delivery.
func (g *Group) Detach(i int) {
	g.mu.Lock()
	g.detached[i] = true
	g.mu.Unlock()
}

// Reattach re-adds slot i with a fresh receive queue on ep.
func (g *Group) Reattach(i int, ep transport.Endpoint) transport.GroupEndpoint {
	ne := &GroupEndpoint{owner: asEndpoint(ep), rcq: newCQ()}
	g.mu.Lock()
	g.members[i] = ne
	g.detached[i] = false
	g.mu.Unlock()
	return ne
}

var _ transport.Transport = (*Net)(nil)
