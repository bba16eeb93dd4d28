//go:build go1.23

package sim

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// drainRunners stops every idle runner, so a test can tell which runner
// the pool hands out next.
func drainRunners() {
	runnerPool.Lock()
	free := runnerPool.free
	runnerPool.free = nil
	runnerPool.Unlock()
	for _, r := range free {
		r.stop()
	}
}

func pooled(r *runner) bool {
	runnerPool.Lock()
	defer runnerPool.Unlock()
	for _, f := range runnerPool.free {
		if f == r {
			return true
		}
	}
	return false
}

// churn runs a kernel that spawns many short processes — sleeps, yields,
// condition waits with timeouts, children — and fingerprints the exact
// interleaving it produced.
func churn(seed int64) string {
	k := New(seed)
	c := NewCond(k)
	h := fnv.New64a()
	record := func(p *Proc, tag string) { fmt.Fprintf(h, "%s@%d;", tag, p.Now()) }
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("w%d", i)
		k.Spawn(name, func(p *Proc) {
			for j := 0; j < 3; j++ {
				p.Sleep(time.Duration(p.Rand().Intn(50)) * time.Nanosecond)
				p.Spawn(name+"/c", func(cp *Proc) {
					cp.Yield()
					record(cp, cp.name)
				})
				if p.Rand().Intn(2) == 0 {
					c.WaitTimeout(p, time.Duration(p.Rand().Intn(30))*time.Nanosecond)
				} else {
					c.Signal()
				}
			}
			record(p, name)
		})
	}
	if err := k.Run(); err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%x/%d/%v", h.Sum64(), k.Events(), k.Now())
}

// Kernels on concurrent goroutines share the runner pool, so a runner
// parked by one kernel's exited process resumes another kernel's process
// on another goroutine. Each kernel's run must still match a serial run of
// the same seed (and pass the race detector).
func TestConcurrentKernelsMatchSerial(t *testing.T) {
	const kernels = 4
	want := make([]string, kernels)
	for i := range want {
		want[i] = churn(int64(i + 1))
		if strings.HasPrefix(want[i], "error") {
			t.Fatal(want[i])
		}
	}
	got := make([]string, kernels*2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = churn(int64(i%kernels + 1))
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want[i%kernels] {
			t.Fatalf("kernel %d (seed %d): concurrent run %s, serial run %s", i, i%kernels+1, g, want[i%kernels])
		}
	}
}

// A panicking process ends Run with an error, and its runner survives the
// panic: it goes back to the pool and runs the next process correctly.
func TestPanickedRunnerIsReused(t *testing.T) {
	drainRunners()
	var used *runner
	k := New(1)
	k.Spawn("boom", func(p *Proc) {
		used = p.r
		p.Sleep(time.Microsecond)
		panic("kaput")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), `process "boom" panicked: kaput`) {
		t.Fatalf("Run = %v, want the process panic", err)
	}
	if !pooled(used) {
		t.Fatal("runner of the panicked process did not return to the pool")
	}

	k2 := New(2)
	c := NewCond(k2)
	var got *runner
	var order []string
	k2.Spawn("waiter", func(p *Proc) {
		got = p.r
		c.Wait(p)
		order = append(order, fmt.Sprintf("waiter@%v", p.Now()))
	})
	k2.Spawn("signaler", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		order = append(order, fmt.Sprintf("signaler@%v", p.Now()))
		c.Signal()
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if got != used {
		t.Fatal("the next process did not reuse the pooled runner")
	}
	if want := "[signaler@3µs waiter@3µs]"; fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %s", order, want)
	}
}

// runtime.Goexit in a process (what t.FailNow does) cannot be recovered
// by the runner: it ends the goroutine that called Run, and the dead
// runner never returns to the pool.
func TestGoexitInProcessEndsRunGoroutine(t *testing.T) {
	var used *runner
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		k := New(1)
		k.Spawn("quitter", func(p *Proc) {
			used = p.r
			p.Sleep(time.Microsecond)
			runtime.Goexit()
		})
		k.Spawn("bystander", func(p *Proc) { p.Sleep(time.Millisecond) })
		_ = k.Run()
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned after a process called runtime.Goexit")
	}
	if used == nil || pooled(used) {
		t.Fatal("the exited runner is back in the pool")
	}

	// Later kernels are unaffected.
	k := New(1)
	ran := false
	k.Spawn("p", func(p *Proc) {
		p.Yield()
		ran = true
	})
	if err := k.Run(); err != nil || !ran {
		t.Fatalf("Run = %v, ran = %v", err, ran)
	}
}
