package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/registry"
	"dfi/internal/sim"
)

// ringMetrics are the virtual metrics of one ring flow. Every field is a
// pure function of the flow's own kernel, so they must come out
// byte-identical whether kernels run one after another or concurrently.
type ringMetrics struct {
	Consumed int
	KeySum   int64
	SrcDone  sim.Time
	TgtDone  sim.Time
	BytesTx  int64
	Events   uint64
}

// runRing simulates flow r — one source→target ring flow on a two-node
// cluster with its own kernel and registry — and returns its virtual
// metrics. Odd flows use shared rings with leases, which reach the
// process-wide shared-ring pools and lease agents.
func runRing(t *testing.T, r, tuples int) ringMetrics {
	const seed = 12345
	k := sim.New(seed)
	k.Deadline = 30 * time.Second
	k.MaxEvents = 50_000_000
	c := fabric.NewCluster(k, 2, fabric.DefaultConfig())
	reg := registry.New(k)
	name := fmt.Sprintf("ring%d", r)
	spec := FlowSpec{
		Name:    name,
		Sources: []Endpoint{{Node: c.Node(0)}},
		Targets: []Endpoint{{Node: c.Node(1)}},
		Schema:  kvSchema,
	}
	if r%2 == 1 {
		spec.Options = Options{SharedRings: true, SegmentSize: 256, LeaseTTL: 30 * time.Microsecond}
	}
	var m ringMetrics
	k.Spawn(name+"-init", func(p *sim.Proc) {
		if err := FlowInit(p, reg, c, spec); err != nil {
			t.Errorf("%s: init: %v", name, err)
		}
	})
	k.Spawn(name+"-src", func(p *sim.Proc) {
		src, err := SourceOpen(p, reg, name, 0)
		if err != nil {
			t.Errorf("%s: source open: %v", name, err)
			return
		}
		for i := 0; i < tuples; i++ {
			if err := src.Push(p, mkTuple(int64(i), int64(r))); err != nil {
				t.Errorf("%s: push %d: %v", name, i, err)
				return
			}
		}
		if err := src.Close(p); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
		m.SrcDone = p.Now()
	})
	k.Spawn(name+"-tgt", func(p *sim.Proc) {
		tgt, err := TargetOpen(p, reg, name, 0)
		if err != nil {
			t.Errorf("%s: target open: %v", name, err)
			return
		}
		for {
			tup, ok := tgt.Consume(p)
			if !ok {
				break
			}
			m.Consumed++
			m.KeySum += kvSchema.Int64(tup, 0)
		}
		m.TgtDone = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	m.BytesTx = c.Node(0).BytesTx()
	m.Events = k.Events()
	return m
}

// TestIndependentKernelsIdentityVirtualMetrics is the determinism gate for
// host parallelism: running flows on independent kernels concurrently, one
// goroutine each, must produce byte-identical virtual metrics — delivery
// counts, content checksums, completion times, wire bytes, event counts —
// to running the same flows one after another. Under -race it also proves
// that kernels share no unsynchronized state.
func TestIndependentKernelsIdentityVirtualMetrics(t *testing.T) {
	const rings, tuples = 6, 3000
	serial := make([]ringMetrics, rings)
	for r := range serial {
		serial[r] = runRing(t, r, tuples)
	}
	for r, m := range serial {
		if m.Consumed != tuples {
			t.Fatalf("ring %d consumed %d of %d tuples", r, m.Consumed, tuples)
		}
		if want := int64(tuples) * int64(tuples-1) / 2; m.KeySum != want {
			t.Fatalf("ring %d key checksum %d, want %d", r, m.KeySum, want)
		}
	}

	parallel := make([]ringMetrics, rings)
	var wg sync.WaitGroup
	for r := range parallel {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			parallel[r] = runRing(t, r, tuples)
		}(r)
	}
	wg.Wait()
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("virtual metrics diverge between serial and concurrent kernels:\n serial:   %+v\n parallel: %+v",
			serial, parallel)
	}
}
