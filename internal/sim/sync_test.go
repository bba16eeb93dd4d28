package sim

import (
	"testing"
	"time"
)

func TestCondSignalWakesOne(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Signal()
		p.Sleep(time.Millisecond)
		if woken != 1 {
			t.Errorf("after one Signal, woken=%d", woken)
		}
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken=%d, want 3", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var timedOut, signaled bool
	k.Spawn("timeout", func(p *Proc) {
		if ok := c.WaitTimeout(p, time.Millisecond); !ok {
			timedOut = true
		}
	})
	k.Spawn("signaled", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // start waiting after the first timed out
		if ok := c.WaitTimeout(p, time.Hour); ok {
			signaled = true
		}
	})
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Error("first waiter should have timed out")
	}
	if !signaled {
		t.Error("second waiter should have been signaled")
	}
	if c.Waiters() != 0 {
		t.Errorf("stale waiters: %d", c.Waiters())
	}
}

func TestCondTimeoutRemovesWaiter(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	k.Spawn("w", func(p *Proc) {
		c.WaitTimeout(p, time.Millisecond)
		if c.Waiters() != 0 {
			t.Errorf("waiter not removed after timeout: %d", c.Waiters())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanBufferedSendRecv(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 2)
	var got []int
	k.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			ch.Send(p, i)
			p.Sleep(time.Microsecond)
		}
		ch.Close()
	})
	k.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := ch.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestChanBlocksWhenFull(t *testing.T) {
	k := New(1)
	ch := NewChan[int](k, 1)
	var sentSecondAt Time
	k.Spawn("producer", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2) // blocks until consumer drains at t=5ms
		sentSecondAt = p.Now()
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		ch.Recv(p)
		ch.Recv(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sentSecondAt != 5*time.Millisecond {
		t.Fatalf("second send completed at %v, want 5ms", sentSecondAt)
	}
}

func TestChanRecvOnClosedDrained(t *testing.T) {
	k := New(1)
	ch := NewChan[string](k, 4)
	k.Spawn("p", func(p *Proc) {
		ch.Send(p, "x")
		ch.Close()
		if v, ok := ch.Recv(p); !ok || v != "x" {
			t.Errorf("Recv = %q, %v", v, ok)
		}
		if _, ok := ch.Recv(p); ok {
			t.Error("Recv on drained closed chan reported ok")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializes(t *testing.T) {
	k := New(1)
	r := NewResource(k, "link", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Use(p, time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	k := New(1)
	r := NewResource(k, "pool", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Use(p, time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two at a time: finish at 1ms, 1ms, 2ms, 2ms.
	if ends[1] != time.Millisecond || ends[3] != 2*time.Millisecond {
		t.Fatalf("ends = %v", ends)
	}
}

func TestWaitGroup(t *testing.T) {
	k := New(1)
	wg := NewWaitGroup(k)
	done := 0
	wg.Add(3)
	for i := 0; i < 3; i++ {
		d := time.Duration(i+1) * time.Millisecond
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(d)
			done++
			wg.Done()
		})
	}
	var joinedAt Time
	k.Spawn("joiner", func(p *Proc) {
		wg.Wait(p)
		joinedAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3 || joinedAt != 3*time.Millisecond {
		t.Fatalf("done=%d joinedAt=%v", done, joinedAt)
	}
}

func TestBarrierReleasesTogetherAndIsReusable(t *testing.T) {
	k := New(1)
	const n = 4
	b := NewBarrier(k, n)
	var round1, round2 []Time
	for i := 0; i < n; i++ {
		d := time.Duration(i+1) * time.Millisecond
		k.Spawn("party", func(p *Proc) {
			p.Sleep(d)
			b.Await(p)
			round1 = append(round1, p.Now())
			p.Sleep(d)
			b.Await(p)
			round2 = append(round2, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range round1 {
		if ts != n*time.Millisecond {
			t.Fatalf("round1 = %v", round1)
		}
	}
	for _, ts := range round2 {
		if ts != 2*n*time.Millisecond {
			t.Fatalf("round2 = %v", round2)
		}
	}
}
