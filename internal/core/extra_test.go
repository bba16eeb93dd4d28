package core

import (
	"testing"
	"time"

	"dfi/internal/schema"
	"dfi/internal/sim"
)

func TestMixedConsumeAndConsumeSegment(t *testing.T) {
	// Interleaving tuple-wise Consume with batch ConsumeSegment must still
	// deliver everything exactly once.
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "mixed",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
		Options: Options{SegmentSize: 64},
	}
	const n = 1000
	seen := make(map[int64]bool)
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "mixed", 0)
		for i := 0; i < n; i++ {
			_ = src.Push(p, mkTuple(int64(i), 0))
		}
		src.Close(p)
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "mixed", 0)
		ts := kvSchema.TupleSize()
		turn := 0
		for {
			turn++
			if turn%2 == 0 {
				tup, ok := tgt.Consume(p)
				if !ok {
					return
				}
				key := kvSchema.Int64(tup, 0)
				if seen[key] {
					t.Errorf("duplicate %d", key)
				}
				seen[key] = true
				continue
			}
			data, count, ok := tgt.ConsumeSegment(p)
			if !ok {
				return
			}
			for i := 0; i < count; i++ {
				key := kvSchema.Int64(schema.Tuple(data[i*ts:(i+1)*ts]), 0)
				if seen[key] {
					t.Errorf("duplicate %d", key)
				}
				seen[key] = true
			}
		}
	})
	e.run(t)
	if len(seen) != n {
		t.Fatalf("delivered %d of %d", len(seen), n)
	}
}

func TestConsumeAfterDoneStaysDone(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "done",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "done", 0)
		_ = src.Push(p, mkTuple(1, 1))
		src.Close(p)
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "done", 0)
		for {
			if _, ok := tgt.Consume(p); !ok {
				break
			}
		}
		if !tgt.Done() {
			t.Error("Done() false after flow end")
		}
		for i := 0; i < 3; i++ {
			if _, ok := tgt.Consume(p); ok {
				t.Error("Consume returned a tuple after flow end")
			}
			if _, _, ok := tgt.ConsumeSegment(p); ok {
				t.Error("ConsumeSegment returned data after flow end")
			}
		}
	})
	e.run(t)
}

func TestDuplicateTargetOpenRejected(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "dup-tgt",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	e.k.Spawn("p", func(p *sim.Proc) {
		_ = FlowInit(p, e.reg, e.c, spec)
		if _, err := TargetOpen(p, e.reg, "dup-tgt", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := TargetOpen(p, e.reg, "dup-tgt", 0); err == nil {
			t.Error("second TargetOpen for the same slot accepted")
		}
		if _, err := TargetOpen(p, e.reg, "dup-tgt", 7); err == nil {
			t.Error("out-of-range target index accepted")
		}
		// Let the source side close out the flow.
		src, err := SourceOpen(p, e.reg, "dup-tgt", 0)
		if err != nil {
			t.Fatal(err)
		}
		src.Close(p)
	})
	e.k.Spawn("drain", func(p *sim.Proc) {
		// The first successful TargetOpen's rings: nobody consumes, but the
		// source only writes an end marker, which fits the empty ring.
	})
	e.run(t)
}

func TestFreeReleasesMemory(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "free",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	var src *Source
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ = SourceOpen(p, e.reg, "free", 0)
		_ = src.Push(p, mkTuple(1, 1))
		src.Close(p)
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "free", 0)
		for {
			if _, ok := tgt.Consume(p); !ok {
				break
			}
		}
		// Free is idempotent: the second round must not release the
		// rings' bytes again (the accounting would go negative).
		for round := 1; round <= 2; round++ {
			src.Free()
			tgt.Free()
			if b := e.c.Node(0).RegisteredBytes(); b != 0 {
				t.Errorf("after Free #%d: source node holds %d registered bytes", round, b)
			}
			if b := e.c.Node(1).RegisteredBytes(); b != 0 {
				t.Errorf("after Free #%d: target node holds %d registered bytes", round, b)
			}
		}
	})
	e.run(t)
}

func TestRegistryRPCDelayAppliesToFlowSetup(t *testing.T) {
	e := newEnv(t, 2)
	e.reg.RPCDelay = 5 * time.Microsecond
	spec := FlowSpec{
		Name:    "rpc",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	var openedAt sim.Time
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "rpc", 0)
		for {
			if _, ok := tgt.Consume(p); !ok {
				return
			}
		}
	})
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "rpc", 0)
		openedAt = p.Now()
		src.Close(p)
	})
	e.run(t)
	if openedAt < 10*time.Microsecond {
		t.Fatalf("setup took %v; registry RPC delays not charged", openedAt)
	}
}

func TestPushedAndConsumedCounters(t *testing.T) {
	e := newEnv(t, 2)
	spec := FlowSpec{
		Name:    "count",
		Sources: []Endpoint{{Node: e.c.Node(0)}},
		Targets: []Endpoint{{Node: e.c.Node(1)}},
		Schema:  kvSchema,
	}
	const n = 500
	e.k.Spawn("init", func(p *sim.Proc) { _ = FlowInit(p, e.reg, e.c, spec) })
	e.k.Spawn("src", func(p *sim.Proc) {
		src, _ := SourceOpen(p, e.reg, "count", 0)
		for i := 0; i < n; i++ {
			_ = src.Push(p, mkTuple(int64(i), 0))
		}
		if src.Pushed() != n {
			t.Errorf("Pushed = %d", src.Pushed())
		}
		src.Close(p)
	})
	e.k.Spawn("tgt", func(p *sim.Proc) {
		tgt, _ := TargetOpen(p, e.reg, "count", 0)
		for {
			if _, ok := tgt.Consume(p); !ok {
				break
			}
		}
		if tgt.Consumed() != n {
			t.Errorf("Consumed = %d", tgt.Consumed())
		}
	})
	e.run(t)
}
