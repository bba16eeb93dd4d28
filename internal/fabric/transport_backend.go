package fabric

import (
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// This file is the fabric-backend adapter: the only place where the
// transport interfaces meet the fabric's concrete types. *Cluster
// implements transport.Transport, *Node transport.Endpoint, *QP
// transport.Queue, *CQ transport.CompletionQueue, *MemoryRegion
// transport.Region and *McEndpoint transport.GroupEndpoint directly;
// MulticastGroup keeps its concrete method set for fabric tests (which
// reach into member endpoints), so mcGroup wraps it for transport.Group.

var (
	_ transport.Transport       = (*Cluster)(nil)
	_ transport.Endpoint        = (*Node)(nil)
	_ transport.Queue           = (*QP)(nil)
	_ transport.CompletionQueue = (*CQ)(nil)
	_ transport.Region          = (*MemoryRegion)(nil)
	_ transport.GroupEndpoint   = (*McEndpoint)(nil)
	_ transport.Group           = mcGroup{}
)

// node asserts a transport endpoint back to the fabric's concrete node.
func node(ep transport.Endpoint) *Node {
	n, ok := ep.(*Node)
	if !ok {
		panic("fabric: endpoint is not a fabric node")
	}
	return n
}

// Dial connects endpoints a and b with a reliable queue pair.
func (c *Cluster) Dial(a, b transport.Endpoint) (transport.Queue, transport.Queue) {
	qa, qb := c.CreateQPPair(node(a), node(b))
	return qa, qb
}

// OpenRegion registers a memory region of the given size on ep.
func (c *Cluster) OpenRegion(ep transport.Endpoint, size int) transport.Region {
	return c.RegisterMemory(node(ep), size)
}

// Multicast creates an unreliable multicast group over the members.
func (c *Cluster) Multicast(members ...transport.Endpoint) transport.Group {
	nodes := make([]*Node, len(members))
	for i, m := range members {
		nodes[i] = node(m)
	}
	return mcGroup{g: c.CreateMulticast(nodes...)}
}

// Spawn starts fn as a new sim process named name.
func (c *Cluster) Spawn(parent transport.Ctx, name string, fn func(transport.Ctx)) {
	proc(parent).Spawn(name, func(sp *sim.Proc) { fn(sp) })
}

// CopiesPayload reports whether verbs move payload bytes (see
// Config.CopyPayload; the bench profile models timing only).
func (c *Cluster) CopiesPayload() bool { return c.cfg.CopyPayload }

// SwitchEndpoint returns a fresh in-network-processing endpoint.
func (c *Cluster) SwitchEndpoint() transport.Endpoint { return c.NewSwitchNode() }

// mcGroup adapts *MulticastGroup to transport.Group.
type mcGroup struct{ g *MulticastGroup }

func (m mcGroup) Send(p transport.Ctx, from transport.Endpoint, src []byte, excludeSelf bool) {
	m.g.Send(p, node(from), src, excludeSelf)
}

func (m mcGroup) Member(i int) transport.GroupEndpoint { return m.g.Member(i) }

func (m mcGroup) Detach(i int) { m.g.Detach(i) }

func (m mcGroup) Reattach(i int, ep transport.Endpoint) transport.GroupEndpoint {
	return m.g.Reattach(i, node(ep))
}
