package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dfi/internal/fabric"
	"dfi/internal/sim"
)

func newWorld(t *testing.T, n int) (*sim.Kernel, *World) {
	t.Helper()
	k := sim.New(3)
	k.Deadline = 30 * time.Second
	k.MaxEvents = 50_000_000
	c := fabric.NewCluster(k, n, fabric.DefaultConfig())
	nodes := make([]*fabric.Node, n)
	for i := range nodes {
		nodes[i] = c.Node(i)
	}
	return k, NewWorld(c, nodes, DefaultConfig())
}

func TestSendRecv(t *testing.T) {
	k, w := newWorld(t, 2)
	k.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 7, []byte("hello mpi"))
	})
	var got []byte
	k.Spawn("r1", func(p *sim.Proc) {
		got = w.Rank(1).Recv(p, 0, 7)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello mpi" {
		t.Fatalf("got %q", got)
	}
}

func TestRecvTagMatchingOutOfOrder(t *testing.T) {
	k, w := newWorld(t, 2)
	k.Spawn("r0", func(p *sim.Proc) {
		w.Rank(0).Send(p, 1, 1, []byte("first"))
		w.Rank(0).Send(p, 1, 2, []byte("second"))
	})
	k.Spawn("r1", func(p *sim.Proc) {
		// Receive tag 2 before tag 1: matching must hold tag 1 aside.
		if got := w.Rank(1).Recv(p, 0, 2); string(got) != "second" {
			t.Errorf("tag2 = %q", got)
		}
		if got := w.Rank(1).Recv(p, 0, 1); string(got) != "first" {
			t.Errorf("tag1 = %q", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	k, w := newWorld(t, 4)
	var after []sim.Time
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			w.Rank(i).Barrier(p)
			after = append(after, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range after {
		if ts < 4*time.Millisecond {
			t.Fatalf("rank left barrier at %v before last arrival", ts)
		}
	}
}

func TestAlltoallExchangesAllParts(t *testing.T) {
	const n = 4
	k, w := newWorld(t, n)
	results := make([][][]byte, n)
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			parts := make([][]byte, n)
			for j := 0; j < n; j++ {
				parts[j] = []byte(fmt.Sprintf("from%d-to%d", i, j))
			}
			results[i] = w.Rank(i).Alltoall(p, 5, parts)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			want := fmt.Sprintf("from%d-to%d", i, j)
			if string(results[j][i]) != want {
				t.Fatalf("rank %d slot %d = %q, want %q", j, i, results[j][i], want)
			}
		}
	}
}

func TestAlltoallIsBulkSynchronous(t *testing.T) {
	// A straggling rank delays the whole collective: nobody's exchange
	// completes before the slowest rank arrives.
	const n = 3
	k, w := newWorld(t, n)
	var doneAt [n]sim.Time
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("r%d", i), func(p *sim.Proc) {
			if i == 0 {
				p.Sleep(10 * time.Millisecond) // straggler
			}
			parts := make([][]byte, n)
			for j := range parts {
				parts[j] = make([]byte, 64)
			}
			w.Rank(i).Alltoall(p, 1, parts)
			doneAt[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, ts := range doneAt {
		if ts < 10*time.Millisecond {
			t.Fatalf("rank %d finished at %v, before the straggler arrived", i, ts)
		}
	}
}

func TestThreadMultipleContentionSlowsCalls(t *testing.T) {
	// The same message stream costs more per message as more threads bang
	// on the rank's latch — the Figure 10b collapse.
	elapsed := func(threads int) sim.Time {
		k, w := newWorld(t, 2)
		w.Rank(0).SetThreads(threads)
		const perThread = 200
		wg := sim.NewWaitGroup(k)
		var last sim.Time
		for th := 0; th < threads; th++ {
			wg.Add(1)
			k.Spawn(fmt.Sprintf("t%d", th), func(p *sim.Proc) {
				buf := make([]byte, 64)
				for i := 0; i < perThread; i++ {
					w.Rank(0).Send(p, 1, uint64(th), buf)
				}
				if p.Now() > last {
					last = p.Now()
				}
				wg.Done()
			})
		}
		k.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < threads*perThread; i++ {
				qp := w.Rank(1).qps[0]
				buf := make([]byte, msgHeader+64)
				qp.PostRecv(buf, 0)
				qp.RecvCQ().Wait(p)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	t1, t4 := elapsed(1), elapsed(4)
	// 4 threads send 4× the messages; if threading were free the elapsed
	// time would stay roughly flat. Contention must make it clearly worse
	// than single-threaded for the same per-thread load.
	if t4 < t1*2 {
		t.Fatalf("4-thread run %v not slower than single-thread %v despite contention", t4, t1)
	}
}

func TestSendValidation(t *testing.T) {
	k, w := newWorld(t, 2)
	k.Spawn("p", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversized message accepted")
			}
		}()
		w.Rank(0).Send(p, 1, 0, make([]byte, 16<<20))
	})
	_ = k.Run()
}

func TestPutAsyncWithFence(t *testing.T) {
	k, w := newWorld(t, 2)
	win := w.Rank(1).ExposeWindow(4096)
	k.Spawn("r0", func(p *sim.Proc) {
		bufs := make([][]byte, 8)
		for i := range bufs {
			bufs[i] = bytes.Repeat([]byte{byte(i + 1)}, 128)
			w.Rank(0).PutAsync(p, 1, i*128, bufs[i])
		}
		w.Rank(0).Fence(p, 1) // all puts complete (and are remotely visible)
		for i := range bufs {
			if win.Bytes()[i*128] != byte(i+1) {
				t.Errorf("put %d not visible after fence", i)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutWithoutWindowPanics(t *testing.T) {
	k, w := newWorld(t, 2)
	k.Spawn("r0", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("PutAsync without window did not panic")
			}
		}()
		w.Rank(0).PutAsync(p, 1, 0, []byte("x"))
	})
	_ = k.Run()
}

func TestEagerVsRendezvousSendLatency(t *testing.T) {
	// Small (eager) sends return almost immediately; sends beyond the
	// eager threshold block for the round trip.
	elapsed := func(size int) sim.Time {
		k, w := newWorld(t, 2)
		var d sim.Time
		k.Spawn("r0", func(p *sim.Proc) {
			start := p.Now()
			w.Rank(0).Send(p, 1, 1, make([]byte, size))
			d = p.Now() - start
		})
		k.Spawn("r1", func(p *sim.Proc) {
			w.Rank(1).Recv(p, 0, 1)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	small := elapsed(512)
	large := elapsed(256 << 10)
	if small >= 2*time.Microsecond {
		t.Fatalf("eager send took %v", small)
	}
	if large <= small*4 {
		t.Fatalf("rendezvous send (%v) not clearly slower than eager (%v)", large, small)
	}
}
