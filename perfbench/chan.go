package main

import (
	"sync"
	"time"

	"dfi/internal/core"
	"dfi/internal/registry"
	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
)

// The chan workloads run on the goroutine backend, which moves real
// bytes under wall-clock time: exactly two working goroutines (source
// and target, or client and server), each owning one transport context.

// block is how many calls the chan workloads time at once: one clock
// read per block keeps timing overhead far below a Push.
const block = 256

// chanRound is the set-up and phase barrier the chan workloads share.
type chanRound struct {
	env    *roundEnv
	r      roundResult
	net    *chanloop.Net
	tpt    transport.Transport
	reg    *registry.Local
	eps    [2]*chanloop.Endpoint
	h0     time.Time
	opened sync.WaitGroup
	done   sync.WaitGroup
	start  chan struct{}
	mu     sync.Mutex // guards r.fail from the two goroutines
	span   int64
}

func newChanRound(env *roundEnv) *chanRound {
	c := &chanRound{env: env, h0: time.Now(), start: make(chan struct{})}
	c.net = chanloop.New()
	c.eps = [2]*chanloop.Endpoint{c.net.NewEndpoint(), c.net.NewEndpoint()}
	c.reg = registry.NewLocal()
	c.tpt = env.wrap(c.net)
	c.span = env.tr.id()
	return c
}

func (c *chanRound) fail(format string, args ...any) {
	c.mu.Lock()
	c.r.fail(1, format, args...)
	c.mu.Unlock()
}

// init runs FlowInit for each spec from the calling goroutine.
func (c *chanRound) init(specs ...core.FlowSpec) bool {
	h := time.Now()
	ctx := c.net.NewCtx()
	for _, s := range specs {
		if err := core.FlowInit(ctx, c.reg, c.tpt, s); err != nil {
			c.fail("FlowInit %s: %v", s.Name, err)
			return false
		}
	}
	c.r.flowInit = time.Since(h)
	c.env.tr.span(0, c.span, "flow_init", "", h, time.Now(), -1, -1)
	return true
}

// worker runs fn on one of the two working goroutines. fn opens its
// endpoints, calls ready, then moves data.
func (c *chanRound) worker(fn func(ctx transport.Ctx, ready func())) {
	c.opened.Add(1)
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		once := sync.Once{}
		ready := func() {
			once.Do(func() {
				c.opened.Done()
				<-c.start
			})
		}
		defer ready()
		fn(c.net.NewCtx(), ready)
	}()
}

// run releases the workers once all opened and waits for them.
func (c *chanRound) run() roundResult {
	h1 := time.Now()
	c.opened.Wait()
	h2 := time.Now()
	close(c.start)
	c.done.Wait()
	h3 := time.Now()
	c.r.open = h2.Sub(h1)
	c.r.setup = h2.Sub(c.h0)
	c.r.data = h3.Sub(h2)
	tr := c.env.tr
	tr.span(0, c.span, "open", "", h1, h2, -1, -1)
	tr.span(0, c.span, "data", "", h2, h3, -1, -1)
	tr.span(c.span, 0, "round", "", c.h0, h3, -1, -1)
	return c.r
}

func (c *chanRound) addSourceStats(s *core.Source) {
	st := sourceStats(s)
	c.mu.Lock()
	c.r.core.add(st)
	c.mu.Unlock()
}

// chanStreamRound streams sizes.streamTuples 16 B tuples from one source
// goroutine to one target goroutine over a bandwidth-optimized flow,
// pushing as fast as ring flow control allows.
func chanStreamRound(env *roundEnv) roundResult {
	c := newChanRound(env)
	spec := core.FlowSpec{
		Name:    "stream",
		Sources: []core.Endpoint{{Node: c.eps[0]}},
		Targets: []core.Endpoint{{Node: c.eps[1]}},
		Schema:  kvSchema,
	}
	if !c.init(spec) {
		return c.r
	}
	ks := newKeyspace(env.seed)
	n := env.sizes.streamTuples
	ck := newChecker(ks, 0, 1, n)
	ck.inject = env.inject
	ts := kvSchema.TupleSize()

	c.worker(func(ctx transport.Ctx, ready func()) {
		src, err := core.SourceOpen(ctx, c.reg, spec.Name, 0)
		ready()
		if err != nil {
			c.fail("SourceOpen: %v", err)
			return
		}
		defer src.Free()
		h := time.Now()
		buf := make([]byte, block*ts)
		var pushNs time.Duration
		pushed := 0
	push:
		for pushed < n {
			m := min(block, n-pushed)
			for j := 0; j < m; j++ {
				fillTuple(buf[j*ts:(j+1)*ts], ks.key(0, 0, pushed+j))
			}
			t0 := time.Now()
			for j := 0; j < m; j++ {
				if err := src.Push(ctx, buf[j*ts:(j+1)*ts]); err != nil {
					c.fail("Push: %v", err)
					break push
				}
				pushed++
			}
			pushNs += time.Since(t0)
		}
		if err := src.Close(ctx); err != nil {
			c.fail("Close: %v", err)
		}
		env.tr.span(0, c.span, "push", spec.Name, h, time.Now(), -1, -1)
		if got := src.Stats().TuplesPushed; got != uint64(pushed) {
			c.fail("Stats reports %d pushed, benchmark pushed %d", got, pushed)
		}
		c.addSourceStats(src)
		c.mu.Lock()
		c.r.pushNs += pushNs
		c.r.pushes += int64(pushed)
		c.mu.Unlock()
	})
	c.worker(func(ctx transport.Ctx, ready func()) {
		tgt, err := core.TargetOpen(ctx, c.reg, spec.Name, 0)
		ready()
		if err != nil {
			c.fail("TargetOpen: %v", err)
			return
		}
		defer tgt.Free()
		h := time.Now()
		buf := make([]byte, block*ts)
		var consumeNs time.Duration
		consumed := 0
		for end := false; !end; {
			t0 := time.Now()
			m := 0
			for m < block {
				tup, ok := tgt.Consume(ctx)
				if !ok {
					end = true
					break
				}
				copy(buf[m*ts:], tup)
				m++
			}
			consumeNs += time.Since(t0)
			for j := 0; j < m; j++ {
				ck.check(buf[j*ts : (j+1)*ts])
			}
			consumed += m
		}
		env.tr.span(0, c.span, "consume", spec.Name, h, time.Now(), -1, -1)
		if got := tgt.Stats().TuplesConsumed; got != uint64(consumed) {
			c.fail("Stats reports %d consumed, benchmark consumed %d", got, consumed)
		}
		c.mu.Lock()
		c.r.consumeNs += consumeNs
		c.r.consumes += int64(consumed)
		c.mu.Unlock()
	})
	r := c.run()
	r.addChecker(ck)
	return r
}

// chanRTTRound runs sizes.rttTrips closed-loop round trips: the client
// pushes a 16 B request on a latency-optimized "ping" flow and waits for
// the server to echo it back on a "pong" flow, one request outstanding.
func chanRTTRound(env *roundEnv) roundResult {
	c := newChanRound(env)
	lat := core.Options{Optimization: core.OptimizeLatency}
	client := []core.Endpoint{{Node: c.eps[0]}}
	server := []core.Endpoint{{Node: c.eps[1]}}
	ping := core.FlowSpec{Name: "ping", Sources: client, Targets: server, Schema: kvSchema, Options: lat}
	pong := core.FlowSpec{Name: "pong", Sources: server, Targets: client, Schema: kvSchema, Options: lat}
	if !c.init(ping, pong) {
		return c.r
	}
	ks := newKeyspace(env.seed)
	n := env.sizes.rttTrips
	// Both checkers expect the same keys: the echo carries the request.
	pingCk, pongCk := newChecker(ks, 0, 1, n), newChecker(ks, 0, 1, n)
	pongCk.inject = env.inject
	rtts := make([]time.Duration, 0, n)

	c.worker(func(ctx transport.Ctx, ready func()) {
		src, err := core.SourceOpen(ctx, c.reg, ping.Name, 0)
		if err != nil {
			ready()
			c.fail("SourceOpen ping: %v", err)
			return
		}
		defer src.Free()
		tgt, err := core.TargetOpen(ctx, c.reg, pong.Name, 0)
		ready()
		if err != nil {
			c.fail("TargetOpen pong: %v", err)
			return
		}
		defer tgt.Free()
		h := time.Now()
		var pushNs, consumeNs time.Duration
		req := kvSchema.NewTuple()
		for i := 0; i < n; i++ {
			key := ks.key(0, 0, i)
			fillTuple(req, key)
			t0 := time.Now()
			if err := src.Push(ctx, req); err != nil {
				c.fail("Push ping %d: %v", i, err)
				break
			}
			t1 := time.Now()
			echo, ok := tgt.Consume(ctx)
			t2 := time.Now()
			if !ok {
				c.fail("pong flow ended after %d of %d echoes", i, n)
				break
			}
			pushNs += t1.Sub(t0)
			consumeNs += t2.Sub(t1)
			rtts = append(rtts, t2.Sub(t0))
			if got := tupleKey(echo); got != key {
				c.fail("echo %d carries key %#x, request had %#x", i, got, key)
			}
			pongCk.check(echo)
		}
		if err := src.Close(ctx); err != nil {
			c.fail("Close ping: %v", err)
		}
		for {
			if _, ok := tgt.Consume(ctx); !ok {
				break
			}
			c.fail("pong delivered an echo nobody asked for")
		}
		env.tr.span(0, c.span, "client", ping.Name, h, time.Now(), -1, -1)
		c.addSourceStats(src)
		c.mu.Lock()
		c.r.pushNs += pushNs
		c.r.pushes += int64(len(rtts))
		c.r.consumeNs += consumeNs
		c.r.consumes += int64(len(rtts))
		c.mu.Unlock()
	})
	c.worker(func(ctx transport.Ctx, ready func()) {
		tgt, err := core.TargetOpen(ctx, c.reg, ping.Name, 0)
		if err != nil {
			ready()
			c.fail("TargetOpen ping: %v", err)
			return
		}
		defer tgt.Free()
		src, err := core.SourceOpen(ctx, c.reg, pong.Name, 0)
		ready()
		if err != nil {
			c.fail("SourceOpen pong: %v", err)
			return
		}
		defer src.Free()
		h := time.Now()
		for {
			req, ok := tgt.Consume(ctx)
			if !ok {
				break
			}
			pingCk.check(req)
			if err := src.Push(ctx, req); err != nil {
				c.fail("Push pong: %v", err)
				break
			}
		}
		if err := src.Close(ctx); err != nil {
			c.fail("Close pong: %v", err)
		}
		env.tr.span(0, c.span, "server", pong.Name, h, time.Now(), -1, -1)
		c.addSourceStats(src)
	})
	r := c.run()
	r.addChecker(pingCk)
	r.addChecker(pongCk)
	r.rtts = rtts
	return r
}
