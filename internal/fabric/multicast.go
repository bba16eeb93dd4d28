package fabric

import (
	"dfi/internal/sim"
	"dfi/internal/transport"
)

// MulticastGroup models InfiniBand unreliable-datagram multicast with
// switch-side replication: a sender serializes a message once on its own
// link; the switch fans it out to every member's receive link in parallel.
//
// As with real UD multicast, delivery is unreliable: a message arriving at
// a member with no posted receive is dropped, and loss can additionally be
// injected with Config.MulticastLoss. Reliability (credits, NACKs,
// sequence numbers) is the responsibility of the layer above — DFI's
// replicate flow implements it.
type MulticastGroup struct {
	c       *Cluster
	members []*McEndpoint

	// detached marks members that were dropped from the group (an evicted
	// flow target): the switch stops replicating to their port, so they
	// neither receive traffic nor count drops.
	detached []bool
}

// McEndpoint is one member's attachment to a multicast group: a receive
// queue and a completion queue.
type McEndpoint struct {
	group *MulticastGroup
	node  *Node
	recvq []RecvWR
	rcq   *CQ

	// Drops counts messages lost at this endpoint (no posted receive or
	// injected loss).
	Drops int64
}

// CreateMulticast builds a multicast group over the given member nodes and
// returns one endpoint per member, in order.
func (c *Cluster) CreateMulticast(members ...*Node) *MulticastGroup {
	g := &MulticastGroup{c: c}
	for _, n := range members {
		g.members = append(g.members, &McEndpoint{group: g, node: n, rcq: c.NewCQ()})
	}
	g.detached = make([]bool, len(g.members))
	return g
}

// Detach removes member i from switch-side replication: subsequent Sends
// skip its port. Idempotent. The endpoint object stays valid so a later
// Reattach can replace it.
func (g *MulticastGroup) Detach(i int) { g.detached[i] = true }

// Reattach re-joins slot i to the group on node n with a fresh endpoint
// (empty receive queue, fresh CQ) and resumes switch-side replication to
// it. Stale receives posted by the slot's previous incarnation are gone —
// exactly the semantics of re-joining an IB multicast group.
func (g *MulticastGroup) Reattach(i int, n *Node) *McEndpoint {
	ep := &McEndpoint{group: g, node: n, rcq: g.c.NewCQ()}
	g.members[i] = ep
	g.detached[i] = false
	return ep
}

// Member returns the endpoint of member i.
func (g *MulticastGroup) Member(i int) *McEndpoint { return g.members[i] }

// Members returns the number of group members.
func (g *MulticastGroup) Members() int { return len(g.members) }

// EndpointFor returns the endpoint attached to node n, or nil.
func (g *MulticastGroup) EndpointFor(n *Node) *McEndpoint {
	for _, ep := range g.members {
		if ep.node == n {
			return ep
		}
	}
	return nil
}

// PostRecv posts a receive buffer at the endpoint. Unlike RC queue pairs,
// a UD message that finds no posted receive is dropped, so the layer above
// must pre-populate the queue (DFI sizes it by its credit score).
func (ep *McEndpoint) PostRecv(buf []byte, id uint64) {
	ep.recvq = append(ep.recvq, RecvWR{Buf: buf, ID: id})
	ep.node.postedRecvs++
}

// RecvCQ returns the endpoint's receive completion queue.
func (ep *McEndpoint) RecvCQ() transport.CompletionQueue { return ep.rcq }

// DropCount returns the number of messages lost at this endpoint.
func (ep *McEndpoint) DropCount() int64 { return ep.Drops }

// Send multicasts src from the given node to every member endpoint
// (including the sender's own endpoint if it is a member, unless
// excludeSelf). The sender's link is used exactly once; replication
// happens in the switch, which is why replicate-flow bandwidth can exceed
// the sender's link speed (Figure 8b in the paper).
func (g *MulticastGroup) Send(p transport.Ctx, from *Node, src []byte, excludeSelf bool) {
	cfg := &g.c.cfg
	from.Compute(p, cfg.PostOverhead)

	k := g.c.K
	ser := cfg.serialization(len(src))
	txStart, txEnd := from.reserveTx(k.Now()+cfg.NICStartup, ser)
	from.bytesTx += int64(len(src))

	var staged []byte
	g.c.touch(txEnd)
	k.At(txEnd, func() {
		staged = make([]byte, len(src))
		copy(staged, src)
	})

	arriveSwitch := txStart + cfg.Propagation + cfg.SwitchDelay
	for mi, ep := range g.members {
		ep := ep
		if g.detached[mi] {
			continue // evicted member: the switch no longer replicates to it
		}
		if excludeSelf && ep.node == from {
			continue
		}
		// Each member's delivery draws its own fault verdict (real UD
		// multicast loss is per receive port, not per message).
		fv := g.c.fault(OpSend, from, ep.node, arriveSwitch+ser)
		disp := Delivered
		if fv.drop {
			disp = Dropped
		}
		g.c.trace(OpSend, from, ep.node, len(src), k.Now(), arriveSwitch+ser+fv.delay, disp)
		if ep.node == from {
			// Loopback delivery does not traverse the switch twice; model
			// it as arriving after the local serialization only.
			g.deliver(ep, txEnd, ser, &staged, fv)
			continue
		}
		g.deliver(ep, arriveSwitch, ser, &staged, fv)
	}
}

// deliver schedules arrival of a staged message at one endpoint under the
// fault verdict fv.
func (g *MulticastGroup) deliver(ep *McEndpoint, from sim.Time, ser sim.Time, staged *[]byte, fv verdict) {
	cfg := &g.c.cfg
	k := g.c.K
	_, rxEnd := ep.node.reserveRx(from, ser)
	arrive := func() {
		if len(ep.recvq) == 0 {
			ep.Drops++ // UD: no posted receive, packet lost
			return
		}
		wr := ep.recvq[0]
		ep.recvq = ep.recvq[1:]
		ep.node.postedRecvs--
		n := copy(wr.Buf, *staged)
		ep.rcq.push(Completion{ID: wr.ID, Op: OpRecv, Bytes: n, Buf: wr.Buf})
	}
	k.At(rxEnd+fv.delay, func() {
		if fv.drop || (cfg.MulticastLoss > 0 && k.Rand().Float64() < cfg.MulticastLoss) {
			ep.Drops++
			return
		}
		arrive()
	})
	if fv.duplicate {
		k.At(rxEnd+fv.delay+cfg.Faults.dupDelay(), arrive)
	}
}
