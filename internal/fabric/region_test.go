package fabric

import (
	"testing"
	"time"

	"dfi/internal/sim"
)

// firstNonzero returns the index of the first nonzero byte of b, or -1.
func firstNonzero(b []byte) int {
	for i, v := range b {
		if v != 0 {
			return i
		}
	}
	return -1
}

// sameMemory reports whether two regions are backed by the same buffer.
func sameMemory(a, b []byte) bool { return &a[0] == &b[0] }

// TestDeregisterBeforeCommitQuarantinesBuffer pins the reuse-before-
// completion guard: a WRITE into region A is in flight when A is
// deregistered, and region B of the same size is opened on the same node
// right away. The WRITE must still complete, into A's old memory, and B
// must not be handed that memory while the commit is pending. Once the
// clock has passed the commit, a new region does reuse it — zeroed.
func TestDeregisterBeforeCommitQuarantinesBuffer(t *testing.T) {
	const size = 4096
	k, c := testCluster(t, 2)
	qp, _ := c.CreateQPPair(c.Node(0), c.Node(1))
	a := c.RegisterMemory(c.Node(1), size)
	aMem := a.Bytes()
	var b, reused *MemoryRegion
	completed := false
	k.Spawn("writer", func(p *sim.Proc) {
		src := make([]byte, size)
		for i := range src {
			src[i] = 0xA5
		}
		qp.Write(p, src, Addr{MR: a}, WriteOptions{Signaled: true, ID: 9, CommitTail: 64})
		a.Deregister()
		b = c.RegisterMemory(c.Node(1), size)
		if sameMemory(b.Bytes(), aMem) {
			t.Error("region opened while a WRITE into a deregistered region was in flight got that region's memory")
		}
		comp := qp.SendCQ().Wait(p)
		completed = comp.ID == 9 && comp.Op == OpWrite
		if aMem[0] != 0xA5 || aMem[size-1] != 0xA5 {
			t.Error("in-flight WRITE did not commit into the deregistered region's memory")
		}
		p.Sleep(time.Microsecond)
		reused = c.RegisterMemory(c.Node(1), size)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("WRITE into a region deregistered in flight never completed")
	}
	if i := firstNonzero(b.Bytes()); i >= 0 {
		t.Fatalf("in-flight WRITE into a deregistered region leaked into a new region at byte %d", i)
	}
	if !sameMemory(reused.Bytes(), aMem) {
		t.Fatal("deregistered memory was not recycled after its quarantine")
	}
	if i := firstNonzero(reused.Bytes()); i >= 0 {
		t.Fatalf("recycled region byte %d is not zero", i)
	}
	if got := c.Node(1).RegisteredBytes(); got != 2*size {
		t.Fatalf("registered = %d, want %d", got, 2*size)
	}
}

// TestDeregisterTwiceIsNoop pins idempotence: a second Deregister must
// neither subtract the region's size again nor queue its memory twice
// (which would hand one buffer to two owners).
func TestDeregisterTwiceIsNoop(t *testing.T) {
	const size = 1024
	k, c := testCluster(t, 1)
	n := c.Node(0)
	k.Spawn("owner", func(p *sim.Proc) {
		mr := c.RegisterMemory(n, size)
		mr.Deregister()
		mr.Deregister()
		if got := n.RegisteredBytes(); got != 0 {
			t.Errorf("registered after double deregister = %d, want 0", got)
		}
		p.Sleep(time.Microsecond)
		x, y := c.RegisterMemory(n, size), c.RegisterMemory(n, size)
		if sameMemory(x.Bytes(), y.Bytes()) {
			t.Error("double deregister handed one buffer to two regions")
		}
		if got := n.RegisteredBytes(); got != 2*size {
			t.Errorf("registered = %d, want %d", got, 2*size)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDeregisteredHandlePanics pins that a dead handle cannot be used:
// local access and new verbs referencing it panic.
func TestDeregisteredHandlePanics(t *testing.T) {
	k, c := testCluster(t, 2)
	qp, _ := c.CreateQPPair(c.Node(0), c.Node(1))
	mr := c.RegisterMemory(c.Node(1), 16)
	mr.Deregister()
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a deregistered region did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("Bytes", func() { mr.Bytes() })
	mustPanic("Store", func() { mr.Store(0, []byte{1}) })
	mustPanic("Load", func() { mr.Load(0, make([]byte, 1)) })
	k.Spawn("p", func(p *sim.Proc) {
		mustPanic("Write", func() { qp.Write(p, make([]byte, 8), Addr{MR: mr}, WriteOptions{}) })
	})
	_ = k.Run()
}

// TestPostedRecvBlocksRecycling pins the receive-buffer case: a receive
// posted into a region has no commit instant until a SEND matches it, so
// a region deregistered while it is pending must not be reused — the late
// SEND lands in the old memory, not in a new owner's.
func TestPostedRecvBlocksRecycling(t *testing.T) {
	const size = 64
	k, c := testCluster(t, 2)
	qa, qb := c.CreateQPPair(c.Node(0), c.Node(1))
	rx := c.RegisterMemory(c.Node(1), size)
	rxMem := rx.Bytes()
	qb.PostRecv(rxMem, 1)
	rx.Deregister()
	var fresh *MemoryRegion
	k.Spawn("sender", func(p *sim.Proc) {
		p.Sleep(time.Microsecond)
		fresh = c.RegisterMemory(c.Node(1), size)
		qa.Send(p, []byte("late message"), false, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sameMemory(fresh.Bytes(), rxMem) {
		t.Fatal("region backing a pending receive was recycled")
	}
	if i := firstNonzero(fresh.Bytes()); i >= 0 {
		t.Fatalf("late SEND leaked into a new region at byte %d", i)
	}
	if string(rxMem[:12]) != "late message" {
		t.Fatalf("late SEND not delivered into its posted buffer: %q", rxMem[:12])
	}
}
