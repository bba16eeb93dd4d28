package chanloop_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dfi/internal/core"
	"dfi/internal/registry"
	"dfi/internal/schema"
	"dfi/internal/transport"
	"dfi/internal/transport/chanloop"
)

// TestStagingPoolConcurrentReuse drives the process-wide staging pool
// from many goroutines at once: several Nets, each streaming unsignaled
// WRITEs and SENDs of mixed size classes, with one signaled WRITE per lap.
// A buffer handed to two in-flight operations, or recycled before its
// commit copied it out, shows up as a corrupted region or message. Run
// with -race.
func TestStagingPoolConcurrentReuse(t *testing.T) {
	const (
		nets  = 4
		laps  = 200
		slots = 8
	)
	sizes := []int{24, 700, 4096, 5000}
	var wg sync.WaitGroup
	for w := 0; w < nets; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			net := chanloop.New()
			a, b := net.NewEndpoint(), net.NewEndpoint()
			qa, qb := net.Dial(a, b)
			stride := sizes[len(sizes)-1]
			mr := net.OpenRegion(b, slots*stride)
			p := net.NewCtx()
			src := make([]byte, slots*stride)
			want := make([]byte, slots*stride)
			recv := make([]byte, stride)
			for lap := 0; lap < laps; lap++ {
				for s := 0; s < slots; s++ {
					n := sizes[(lap+s)%len(sizes)]
					seg := src[s*stride : s*stride+n]
					for i := range seg {
						seg[i] = byte(w*31 + lap*7 + s + i)
					}
					copy(want[s*stride:], seg)
					qa.Write(p, seg, transport.Addr{MR: mr, Off: s * stride},
						transport.WriteOptions{Signaled: s == slots-1, ID: uint64(lap)})
				}
				msg := []byte(fmt.Sprintf("net %d lap %d", w, lap))
				qa.Send(p, msg, false, uint64(lap))
				if c, ok := qa.SendCQ().WaitTimeout(p, 5*time.Second); !ok || c.ID != uint64(lap) {
					t.Errorf("net %d lap %d: write completion (%+v,%v)", w, lap, c, ok)
					return
				}
				got := make([]byte, slots*stride)
				mr.Load(0, got)
				for s := 0; s < slots; s++ {
					n := sizes[(lap+s)%len(sizes)]
					if !bytes.Equal(got[s*stride:s*stride+n], want[s*stride:s*stride+n]) {
						t.Errorf("net %d lap %d slot %d: region holds another operation's bytes", w, lap, s)
						return
					}
				}
				qb.PostRecv(recv, 0)
				c, ok := qb.RecvCQ().WaitTimeout(p, 5*time.Second)
				if !ok || string(c.Buf[:c.Bytes]) != string(msg) {
					t.Errorf("net %d lap %d: received %q, want %q", w, lap, c.Buf[:c.Bytes], msg)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSteadyStateStreamAllocBound is chanloop's counterpart to core's
// zero-alloc data-path gate. Goroutine hand-offs and per-verb closures
// still allocate on this backend, so the bound is on bytes, not on
// counts: once a flow streams in steady state, the heap allocated per
// ring segment must stay far below one segment. A per-WRITE payload
// snapshot (one segment's worth of bytes per WRITE) fails it at once;
// recycled staging buffers pass with a wide margin.
func TestSteadyStateStreamAllocBound(t *testing.T) {
	const (
		segment   = 8 << 10 // core's default segment size
		warmup    = 100_000
		window    = 400_000
		total     = warmup + window + 20_000
		maxPerSeg = segment / 4
	)
	sch := schema.MustNew(
		schema.Column{Name: "key", Type: schema.Int64},
		schema.Column{Name: "value", Type: schema.Int64},
	)
	net := chanloop.New()
	a, b := net.NewEndpoint(), net.NewEndpoint()
	reg := registry.NewLocal()
	spec := core.FlowSpec{
		Name:    "steady",
		Sources: []core.Endpoint{{Node: a}},
		Targets: []core.Endpoint{{Node: b}},
		Schema:  sch,
		Options: core.Options{SegmentSize: segment},
	}
	if err := core.FlowInit(net.NewCtx(), reg, net, spec); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := net.NewCtx()
		src, err := core.SourceOpen(p, reg, "steady", 0)
		if err != nil {
			t.Error(err)
			return
		}
		tup := sch.NewTuple()
		for i := int64(0); i < total; i++ {
			sch.PutInt64(tup, 0, i)
			if err := src.Push(p, tup); err != nil {
				t.Error(err)
				return
			}
		}
		src.Close(p)
	}()

	p := net.NewCtx()
	tgt, err := core.TargetOpen(p, reg, "steady", 0)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var segs0, segs1 uint64
	consumed := 0
	for {
		switch consumed {
		case warmup:
			segs0 = tgt.Stats().SegmentsConsumed
			runtime.ReadMemStats(&before)
		case warmup + window:
			runtime.ReadMemStats(&after)
			segs1 = tgt.Stats().SegmentsConsumed
		}
		if _, ok := tgt.Consume(p); !ok {
			break
		}
		consumed++
	}
	wg.Wait()
	if consumed != total {
		t.Fatalf("consumed %d tuples, want %d", consumed, total)
	}
	segs := segs1 - segs0
	if segs == 0 {
		t.Fatal("no segments consumed in the measurement window")
	}
	perSeg := (after.TotalAlloc - before.TotalAlloc) / segs
	t.Logf("%d B allocated per segment over %d segments (%d allocs)", perSeg, segs, after.Mallocs-before.Mallocs)
	if perSeg > maxPerSeg {
		t.Fatalf("steady-state streaming allocated %d B per %d B segment (bound %d): a per-WRITE copy is back",
			perSeg, segment, maxPerSeg)
	}
}
