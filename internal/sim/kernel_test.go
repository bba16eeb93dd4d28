package sim

import (
	"testing"
	"time"
)

func TestSleepAdvancesVirtualClock(t *testing.T) {
	k := New(1)
	var at Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Millisecond {
		t.Fatalf("got %v, want 5ms", at)
	}
}

func TestSleepZeroOrNegativeIsNoop(t *testing.T) {
	k := New(1)
	steps := 0
	k.Spawn("p", func(p *Proc) {
		p.Sleep(0)
		steps++
		p.Sleep(-time.Second)
		steps++
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 2 {
		t.Fatalf("steps=%d", steps)
	}
	if k.Now() != 0 {
		t.Fatalf("clock moved: %v", k.Now())
	}
}

func TestEventOrderingIsDeterministic(t *testing.T) {
	run := func() []string {
		k := New(42)
		var order []string
		for _, n := range []string{"a", "b", "c"} {
			n := n
			k.Spawn(n, func(p *Proc) {
				p.Sleep(time.Duration(k.Rand().Intn(100)) * time.Microsecond)
				order = append(order, n)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 3; i++ {
		again := run()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic order: %v vs %v", first, again)
			}
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	k := New(1)
	var order []int
	k.After(time.Millisecond, func() { order = append(order, 1) })
	k.After(time.Millisecond, func() { order = append(order, 2) })
	k.After(time.Millisecond, func() { order = append(order, 3) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := New(1)
	var childTime Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childTime = c.Now()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 2*time.Millisecond {
		t.Fatalf("child finished at %v, want 2ms", childTime)
	}
}

func TestPanicInProcessSurfacesAsError(t *testing.T) {
	k := New(1)
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic("kaput")
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	k.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	k.Spawn("done", func(p *Proc) { p.Sleep(time.Microsecond) })
	k.Spawn("also-stuck", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		c.Wait(p)
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	want := "sim: deadlock at t=2µs: 2 live processes, parked: [also-stuck stuck]"
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	k := New(1)
	k.MaxEvents = 100
	k.Spawn("spin", func(p *Proc) {
		for {
			p.Sleep(time.Nanosecond)
		}
	})
	if err := k.Run(); err == nil {
		t.Fatal("expected MaxEvents error")
	}
}

func TestDeadlineGuard(t *testing.T) {
	k := New(1)
	k.Deadline = time.Second
	k.Spawn("long", func(p *Proc) { p.Sleep(time.Hour) })
	if err := k.Run(); err == nil {
		t.Fatal("expected deadline error")
	}
}

func TestYieldLetsSameInstantEventsRun(t *testing.T) {
	k := New(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAfterCallbackRunsAtScheduledTime(t *testing.T) {
	k := New(1)
	var at Time = -1
	k.After(3*time.Millisecond, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*time.Millisecond {
		t.Fatalf("callback at %v", at)
	}
}

func TestBlockingFromWrongGoroutinePanics(t *testing.T) {
	k := New(1)
	var stolen *Proc
	k.Spawn("victim", func(p *Proc) {
		stolen = p
		p.Sleep(time.Millisecond)
	})
	k.Spawn("thief", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic using another process's handle")
			}
		}()
		stolen.Sleep(time.Millisecond)
	})
	// The thief's panic is recovered inside its own fn, so Run succeeds.
	_ = k.Run()
}
