package sim

import (
	"testing"
	"time"
)

// BenchmarkKernelSwitch measures one park/resume cycle: the process yields,
// the scheduler dispatches its timer and wake events and switches back into
// it. An op is two process switches and two events.
func BenchmarkKernelSwitch(b *testing.B) {
	k := New(1)
	k.Spawn("yielder", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleepFastPath measures a Sleep that never parks. "idle": nothing
// else is pending, so the clock advances in place. "inline": one scheduler
// callback falls due inside each sleep and is dispatched on the sleeping
// process's stack (a heap push and pop per op).
func BenchmarkSleepFastPath(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		k := New(1)
		k.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(time.Nanosecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("inline", func(b *testing.B) {
		k := New(1)
		fired := 0
		tick := func() { fired++ }
		k.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				k.After(time.Nanosecond, tick)
				p.Sleep(2 * time.Nanosecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if fired != b.N {
			b.Fatalf("fired %d callbacks, want %d", fired, b.N)
		}
	})
}
