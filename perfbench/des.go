package main

import (
	"fmt"
	"time"

	"dfi/internal/core"
	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/sim"
	"dfi/internal/transport"
	"dfi/internal/transport/sharedring"
)

// The DES workloads run on the simulated fabric. A blocking call parks
// its sim process and the kernel runs others, so host time is taken only
// at phase barriers: FlowInit of every flow of a group, then every
// endpoint open, then the data phase, each phase starting after the
// previous one ended.

// fleetTenants are the des-fleet tenants; flow f belongs to
// fleetTenants[f%4] with scheduling weight 1+f%3.
var fleetTenants = [4]string{"tenant0", "tenant1", "tenant2", "tenant3"}

func padSchema(size int) *schema.Schema {
	return schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "pad", Type: schema.Char(size - 8)},
	)
}

var kvSchema = schema.MustNew(
	schema.Column{Name: "key", Type: schema.Int64},
	schema.Column{Name: "value", Type: schema.Int64},
)

// desGroup is a set of flows that start together: FlowInit by `initers`
// parallel processes, then every endpoint opens, then all push at once.
type desGroup struct {
	env       *roundEnv
	k         *sim.Kernel
	c         *fabric.Cluster
	reg       core.Registry
	tpt       transport.Transport
	specs     []core.FlowSpec
	flowBase  int // key-space index of specs[0]
	perSource int
	initers   int
	r         *roundResult
	// links, when set, are sampled for shared-ring occupancy in traced
	// rounds.
	links func() []*sharedring.Link
}

func (g *desGroup) run(p *sim.Proc) {
	env, r, k := g.env, g.r, g.k
	ks := newKeyspace(env.seed)
	tr := env.tr

	h0, v0 := time.Now(), p.Now()
	inits := sim.NewWaitGroup(k)
	for w := 0; w < g.initers; w++ {
		inits.Add(1)
		p.Spawn(fmt.Sprintf("init%d", w), func(q *sim.Proc) {
			defer inits.Done()
			for f := w; f < len(g.specs); f += g.initers {
				if err := core.FlowInit(q, g.reg, g.tpt, g.specs[f]); err != nil {
					r.fail(1, "FlowInit %s: %v", g.specs[f].Name, err)
				}
			}
		})
	}
	inits.Wait(p)
	h1, v1 := time.Now(), p.Now()

	endpoints := 0
	for _, s := range g.specs {
		endpoints += len(s.Sources) + len(s.Targets)
	}
	opened, done := sim.NewWaitGroup(k), sim.NewWaitGroup(k)
	opened.Add(endpoints)
	done.Add(endpoints)
	started := false
	gate := sim.NewCond(k)
	await := func(q *sim.Proc) {
		opened.Done()
		for !started {
			gate.Wait(q)
		}
	}
	var links []*sharedring.Link
	checkers := make([]*checker, len(g.specs))
	var srcs []*core.Source
	var tgts []*core.Target
	flowSpan := make([]int64, len(g.specs))
	for f := range g.specs {
		spec := g.specs[f]
		flow := g.flowBase + f
		ck := newChecker(ks, flow, len(spec.Sources), g.perSource)
		if f == 0 {
			ck.inject = env.inject
			env.inject = faultNone
		}
		checkers[f] = ck
		flowSpan[f] = tr.id()
		for s := range spec.Sources {
			p.Spawn(fmt.Sprintf("%s/src%d", spec.Name, s), func(q *sim.Proc) {
				defer done.Done()
				hs, vs := time.Now(), q.Now()
				src, err := core.SourceOpen(q, g.reg, spec.Name, s)
				tr.span(0, flowSpan[f], "source_open", spec.Name, hs, time.Now(), vs, q.Now())
				await(q)
				if err != nil {
					r.fail(1, "SourceOpen %s/%d: %v", spec.Name, s, err)
					return
				}
				srcs = append(srcs, src)
				hs, vs = time.Now(), q.Now()
				tup := spec.Schema.NewTuple()
				pushed := uint64(0)
				for i := 0; i < g.perSource; i++ {
					fillTuple(tup, ks.key(flow, s, i))
					if err := src.Push(q, tup); err != nil {
						r.fail(1, "Push %s/%d: %v", spec.Name, s, err)
						break
					}
					pushed++
				}
				if err := src.Close(q); err != nil {
					r.fail(1, "Close %s/%d: %v", spec.Name, s, err)
				}
				tr.span(0, flowSpan[f], "push", spec.Name, hs, time.Now(), vs, q.Now())
				if got := src.Stats().TuplesPushed; got != pushed {
					r.fail(1, "%s/%d: Stats reports %d pushed, benchmark pushed %d", spec.Name, s, got, pushed)
				}
			})
		}
		for t := range spec.Targets {
			p.Spawn(fmt.Sprintf("%s/tgt%d", spec.Name, t), func(q *sim.Proc) {
				defer done.Done()
				hs, vs := time.Now(), q.Now()
				tgt, err := core.TargetOpen(q, g.reg, spec.Name, t)
				tr.span(0, flowSpan[f], "target_open", spec.Name, hs, time.Now(), vs, q.Now())
				await(q)
				if err != nil {
					r.fail(1, "TargetOpen %s/%d: %v", spec.Name, t, err)
					return
				}
				tgts = append(tgts, tgt)
				hs, vs = time.Now(), q.Now()
				consumed := uint64(0)
				for {
					tup, ok := tgt.Consume(q)
					if !ok {
						break
					}
					ck.check(tup)
					consumed++
					if tr != nil && consumed%64 == 0 {
						for _, l := range links {
							tr.sampleOccupancy(l.Occupancy())
						}
					}
				}
				tr.span(0, flowSpan[f], "consume", spec.Name, hs, time.Now(), vs, q.Now())
				if got := tgt.Stats().TuplesConsumed; got != consumed {
					r.fail(1, "%s/%d: Stats reports %d consumed, benchmark consumed %d", spec.Name, t, got, consumed)
				}
			})
		}
	}
	opened.Wait(p)
	h2, v2 := time.Now(), p.Now()
	if tr != nil && g.links != nil {
		links = g.links()
	}
	var regBytes int64
	for i := 0; i < g.c.Nodes(); i++ {
		regBytes += g.c.Node(i).RegisteredBytes()
	}
	if regBytes > r.virt.regPeak {
		r.virt.regPeak = regBytes
	}
	started = true
	gate.Broadcast()
	done.Wait(p)
	h3, v3 := time.Now(), p.Now()

	r.flowInit += h1.Sub(h0)
	r.open += h2.Sub(h1)
	r.setup += h2.Sub(h0)
	r.data += h3.Sub(h2)
	r.virt.makespan += v3 - v2
	r.virt.flows += len(g.specs)
	for f, ck := range checkers {
		r.addChecker(ck)
		r.virt.bytes += ck.delivered * int64(g.specs[f].Schema.TupleSize())
		tr.span(flowSpan[f], 0, "flow", g.specs[f].Name, h0, h3, v0, v3)
	}
	tr.span(0, 0, "flow_init", "", h0, h1, v0, v1)
	tr.span(0, 0, "open", "", h1, h2, v1, v2)
	tr.span(0, 0, "data", "", h2, h3, v2, v3)
	for _, s := range srcs {
		r.virt.sourceStat.add(sourceStats(s))
		s.Free()
	}
	for _, t := range tgts {
		t.Free()
	}
}

// newDESCluster builds the kernel and cluster of one round. Payload
// copying is on (the fabric default), so every byte a target checks
// really crossed the simulated wire.
func newDESCluster(seed int64, nodes int) (*sim.Kernel, *fabric.Cluster) {
	k := sim.New(seed)
	k.Deadline = time.Minute
	k.MaxEvents = 500_000_000
	return k, fabric.NewCluster(k, nodes, fabric.DefaultConfig())
}

// finishDES records a finished DES round's kernel and fabric figures.
func finishDES(r *roundResult, k *sim.Kernel, c *fabric.Cluster) {
	r.virt.events = k.Events()
	var busiest time.Duration
	for i := 0; i < c.Nodes(); i++ {
		n := c.Node(i)
		busiest = max(busiest, n.TxBusy(), n.RxBusy())
	}
	if end := k.Now(); end > 0 {
		r.virt.linkUtil = float64(busiest) / float64(end)
	}
}

// desShuffleRound runs sizes.shuffleFlows sequential 1:8
// bandwidth-optimized shuffles on one cluster: 2 source threads on node
// 0, one target on each of nodes 1-8, 1 KiB tuples. Every flow registers
// fresh rings on the same cluster.
func desShuffleRound(env *roundEnv) roundResult {
	var r roundResult
	h0 := time.Now()
	k, c := newDESCluster(env.seed, 9)
	reg := registry.New(k)
	tpt := env.wrap(c)
	r.setup += time.Since(h0)

	sch := padSchema(1024)
	var sources, targets []core.Endpoint
	for th := 0; th < 2; th++ {
		sources = append(sources, core.Endpoint{Node: c.Node(0), Thread: th})
	}
	for n := 1; n <= 8; n++ {
		targets = append(targets, core.Endpoint{Node: c.Node(n)})
	}
	k.Spawn("coordinator", func(p *sim.Proc) {
		for f := 0; f < env.sizes.shuffleFlows; f++ {
			g := &desGroup{
				env: env, k: k, c: c, reg: reg, tpt: tpt,
				specs: []core.FlowSpec{{
					Name:    fmt.Sprintf("shuffle%d", f),
					Sources: sources,
					Targets: targets,
					Schema:  sch,
					Options: core.Options{SegmentsPerRing: 32},
				}},
				flowBase:  f,
				perSource: env.sizes.shuffleBytes / sch.TupleSize(),
				initers:   1,
				r:         &r,
			}
			g.run(p)
		}
	})
	if err := k.Run(); err != nil {
		r.err = err
		return r
	}
	finishDES(&r, k, c)
	return r
}

// desFleetRound runs sizes.fleetFlows concurrent shared-ring flows on a
// 4-node cluster with a 4-shard registry: sources on nodes 0/1, targets
// on nodes 2/3, 16 B tuples, 30 µs leases renewed in per-node batches,
// four weighted tenants. It is the connection-scaling scenario with no
// evictions.
func desFleetRound(env *roundEnv) roundResult {
	var r roundResult
	h0 := time.Now()
	k, c := newDESCluster(env.seed, 4)
	reg := registry.NewSharded(k, 4)
	tpt := env.wrap(c)
	r.setup += time.Since(h0)

	specs := make([]core.FlowSpec, env.sizes.fleetFlows)
	for f := range specs {
		specs[f] = core.FlowSpec{
			Name:    fmt.Sprintf("fleet%d", f),
			Schema:  kvSchema,
			Sources: []core.Endpoint{{Node: c.Node(f % 2)}},
			Targets: []core.Endpoint{{Node: c.Node(2 + f%2)}},
			Options: core.Options{
				SharedRings:  true,
				SegmentSize:  256,
				LeaseTTL:     30 * time.Microsecond,
				Tenant:       fleetTenants[f%4],
				TenantWeight: 1 + f%3,
			},
		}
	}
	pool := func() *sharedring.Pool { return sharedring.PoolOf(tpt, sharedring.Config{}) }
	defer sharedring.DropPool(tpt)
	g := &desGroup{
		env: env, k: k, c: c, reg: reg, tpt: tpt,
		specs:     specs,
		perSource: env.sizes.fleetTuples,
		// Parallel FlowInit, as a fleet's control plane would see it.
		initers: 16,
		r:       &r,
		links:   func() []*sharedring.Link { return pool().Links() },
	}
	k.Spawn("coordinator", g.run)
	if err := k.Run(); err != nil {
		r.err = err
		return r
	}
	finishDES(&r, k, c)
	for _, l := range pool().Links() {
		if err := l.CheckConservation(); err != nil {
			r.fail(1, "shared ring %d->%d: %v", l.Src().ID(), l.Dst().ID(), err)
		}
		r.virt.released += l.Released()
	}
	for i, t := range fleetTenants {
		tc := pool().Tenant(t)
		r.virt.acquired[i] = tc.Acquired.Load()
		r.virt.refunded[i] = tc.Refunded.Load()
	}
	r.virt.leaseRPCs = reg.LeaseRenewRPCs()
	return r
}
