// Package transporttest is the conformance suite every transport backend
// must pass: one table of semantic tests — per-queue write ordering with
// commit-tail visibility, fetch-add serialization returning unique old
// values, reliable two-sided send/recv, CQ signaled-only completions,
// multicast drop-without-posted-recv and zeroed reopened regions —
// executed against a backend-supplied environment. The DES fabric and
// chanloop both run it
// (internal/fabric/conformance_test.go,
// internal/transport/chanloop/conformance_test.go); a future socket
// backend passes by wiring up NewEnv.
package transporttest

import (
	"encoding/binary"
	"testing"
	"time"

	"dfi/internal/transport"
)

// Env is one freshly built backend instance for one test case: a
// transport, n endpoints, a way to start concurrent actors, and a Run
// that drives them to completion (the sim kernel's event loop, or a
// WaitGroup wait for goroutine backends).
type Env struct {
	T  transport.Transport
	EP []transport.Endpoint
	// Go starts fn as a concurrent actor (sim process or goroutine).
	Go func(name string, fn func(transport.Ctx))
	// Run drives all actors started with Go until they finish.
	Run func()
}

// NewEnv builds a fresh Env with n endpoints.
type NewEnv func(n int) Env

// waitFor is the bounded wait used by every test: generous on wall
// clocks, cheap in virtual time.
const waitFor = 5 * time.Second

// Run executes the conformance table against the backend.
func Run(t *testing.T, newEnv NewEnv) {
	cases := []struct {
		name string
		fn   func(t *testing.T, env Env)
	}{
		{"WriteOrderingPerQueue", testWriteOrdering},
		{"WriteCommitTailLast", testCommitTail},
		{"FetchAddSerialization", testFetchAdd},
		{"CompareSwap", testCompareSwap},
		{"SendRecvReliable", testSendRecv},
		{"SignaledOnlyCompletions", testSignaledOnly},
		{"BurstPollOrdering", testBurstPoll},
		{"ReadBack", testReadBack},
		{"MulticastDropWithoutRecv", testMulticastDrop},
		{"ReopenedRegionReadsZero", testReopenedRegionZero},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn(t, newEnv(3))
		})
	}
}

// testWriteOrdering pins RC ordering: N unsignaled writes posted on one
// queue, then one signaled marker write. When the reader observes the
// marker, every earlier write must already be visible.
func testWriteOrdering(t *testing.T, env Env) {
	const n = 64
	mr := env.T.OpenRegion(env.EP[1], (n+1)*8)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("writer", func(p transport.Ctx) {
		// One backing slot per WR: the selective-signaling contract says a
		// source buffer must stay stable until a covering completion.
		src := make([]byte, (n+1)*8)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(src[i*8:], uint64(i)+1)
			qa.Write(p, src[i*8:(i+1)*8], transport.Addr{MR: mr, Off: i * 8}, transport.WriteOptions{})
		}
		binary.LittleEndian.PutUint64(src[n*8:], ^uint64(0))
		qa.Write(p, src[n*8:], transport.Addr{MR: mr, Off: n * 8}, transport.WriteOptions{Signaled: true, ID: 7})
		if c, ok := qa.SendCQ().WaitTimeout(p, waitFor); !ok || c.ID != 7 {
			t.Errorf("marker write completion: got (%+v,%v), want ID 7", c, ok)
		}
	})
	env.Go("reader", func(p transport.Ctx) {
		buf := make([]byte, 8)
		deadline := p.Now() + waitFor
		for {
			mr.Load(n*8, buf)
			if binary.LittleEndian.Uint64(buf) == ^uint64(0) {
				break
			}
			if p.Now() > deadline {
				t.Errorf("marker write never became visible")
				return
			}
			mr.WaitChange(p, 10*time.Millisecond)
		}
		for i := 0; i < n; i++ {
			mr.Load(i*8, buf)
			if got := binary.LittleEndian.Uint64(buf); got != uint64(i)+1 {
				t.Errorf("slot %d: got %d before marker, want %d (ordering violated)", i, got, i+1)
			}
		}
	})
	env.Run()
}

// testCommitTail pins footer-last commit ordering: a WRITE whose
// CommitTail bytes must never be visible before its body.
func testCommitTail(t *testing.T, env Env) {
	const body, tail, rounds = 1024, 16, 32
	mr := env.T.OpenRegion(env.EP[1], body+tail)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("writer", func(p transport.Ctx) {
		seg := make([]byte, body+tail)
		for round := 1; round <= rounds; round++ {
			for i := 0; i < body; i++ {
				seg[i] = byte(round)
			}
			binary.LittleEndian.PutUint64(seg[body:], uint64(round))
			qa.Write(p, seg, transport.Addr{MR: mr, Off: 0},
				transport.WriteOptions{CommitTail: tail, Signaled: true, ID: uint64(round)})
			if _, ok := qa.SendCQ().WaitTimeout(p, waitFor); !ok {
				t.Errorf("round %d: write completion lost", round)
				return
			}
		}
	})
	env.Go("reader", func(p transport.Ctx) {
		ftr := make([]byte, 8)
		b := make([]byte, body)
		seen := uint64(0)
		deadline := p.Now() + waitFor
		for seen < rounds && p.Now() < deadline {
			since := mr.CommitSeq()
			mr.Load(body, ftr)
			round := binary.LittleEndian.Uint64(ftr)
			if round > seen {
				// Footer visible: the whole body of that round must be too.
				mr.Load(0, b)
				for i := 0; i < body; i++ {
					if uint64(b[i]) < round {
						t.Errorf("round %d: body byte %d is stale (%d) under committed tail", round, i, b[i])
						return
					}
				}
				seen = round
			}
			mr.WaitCommit(p, since, 10*time.Millisecond)
		}
		if seen < rounds {
			t.Errorf("saw only %d/%d rounds", seen, rounds)
		}
	})
	env.Run()
}

// testFetchAdd pins atomic serialization: concurrent fetch-adds from two
// endpoints each observe a unique old value, and the counter sums up.
func testFetchAdd(t *testing.T, env Env) {
	const perActor = 50
	mr := env.T.OpenRegion(env.EP[2], 8)
	q0, _ := env.T.Dial(env.EP[0], env.EP[2])
	q1, _ := env.T.Dial(env.EP[1], env.EP[2])

	olds := make(chan uint64, 2*perActor)
	actor := func(q transport.Queue) func(transport.Ctx) {
		return func(p transport.Ctx) {
			for i := 0; i < perActor; i++ {
				old, ok := q.FetchAddChecked(p, transport.Addr{MR: mr, Off: 0}, 1)
				if !ok {
					t.Errorf("fetch-add reported failure on a healthy endpoint")
					return
				}
				olds <- old
			}
		}
	}
	env.Go("fa-0", actor(q0))
	env.Go("fa-1", actor(q1))
	env.Run()

	close(olds)
	seen := make(map[uint64]bool)
	for v := range olds {
		if seen[v] {
			t.Errorf("old value %d returned twice (atomics not serialized)", v)
		}
		seen[v] = true
	}
	if len(seen) != 2*perActor {
		t.Errorf("got %d distinct old values, want %d", len(seen), 2*perActor)
	}
	final := make([]byte, 8)
	mr.Load(0, final)
	if got := binary.LittleEndian.Uint64(final); got != 2*perActor {
		t.Errorf("final counter %d, want %d", got, 2*perActor)
	}
}

// testCompareSwap pins compare-and-swap: exactly one of two racing CAS
// attempts from the same queue wins, and a CAS with a stale expect
// fails without writing.
func testCompareSwap(t *testing.T, env Env) {
	mr := env.T.OpenRegion(env.EP[1], 8)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("cas", func(p transport.Ctx) {
		if old := qa.CompareSwap(p, transport.Addr{MR: mr, Off: 0}, 0, 42); old != 0 {
			t.Errorf("first CAS old=%d, want 0", old)
		}
		if old := qa.CompareSwap(p, transport.Addr{MR: mr, Off: 0}, 0, 99); old != 42 {
			t.Errorf("stale CAS old=%d, want 42", old)
		}
		buf := make([]byte, 8)
		mr.Load(0, buf)
		if got := binary.LittleEndian.Uint64(buf); got != 42 {
			t.Errorf("counter=%d after failed CAS, want 42", got)
		}
	})
	env.Run()
}

// testSendRecv pins reliable two-sided semantics: a posted receive gets
// the message; a message sent before any receive is posted is queued,
// not dropped.
func testSendRecv(t *testing.T, env Env) {
	qa, qb := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("sender", func(p transport.Ctx) {
		qa.Send(p, []byte("early-bird"), true, 1)
		if c, ok := qa.SendCQ().WaitTimeout(p, waitFor); !ok || c.Op != transport.OpSend {
			t.Errorf("send completion: got (%+v,%v)", c, ok)
		}
	})
	env.Go("receiver", func(p transport.Ctx) {
		// Post the receive well after the send has arrived unmatched;
		// reliable queues must have held the message.
		p.Sleep(50 * time.Millisecond)
		buf := make([]byte, 16)
		qb.PostRecv(buf, 5)
		c, ok := qb.RecvCQ().WaitTimeout(p, waitFor)
		if !ok {
			t.Errorf("early send was lost (reliable queues must queue it)")
			return
		}
		if c.ID != 5 || string(c.Buf[:c.Bytes]) != "early-bird" {
			t.Errorf("recv completion: id=%d payload=%q", c.ID, c.Buf[:c.Bytes])
		}
	})
	env.Run()
}

// testSignaledOnly pins selective signaling: unsignaled writes produce
// no completions; the one signaled write produces exactly one.
func testSignaledOnly(t *testing.T, env Env) {
	mr := env.T.OpenRegion(env.EP[1], 64)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("writer", func(p transport.Ctx) {
		buf := []byte("x")
		for i := 0; i < 10; i++ {
			qa.Write(p, buf, transport.Addr{MR: mr, Off: i}, transport.WriteOptions{})
		}
		qa.Write(p, buf, transport.Addr{MR: mr, Off: 10}, transport.WriteOptions{Signaled: true, ID: 77})
		c, ok := qa.SendCQ().WaitTimeout(p, waitFor)
		if !ok || c.ID != 77 {
			t.Errorf("signaled completion: got (%+v,%v), want ID 77", c, ok)
		}
		// Grace period: any spurious completion from the unsignaled writes
		// would land within it.
		p.Sleep(5 * time.Millisecond)
		if n := qa.SendCQ().Len(); n != 0 {
			t.Errorf("%d spurious completions from unsignaled writes", n)
		}
	})
	env.Run()
}

// testBurstPoll pins burst draining: completions drained with PollBatch
// come back in per-queue posting order — across batch boundaries, on
// partial batches (queue shorter than the burst buffer), and when burst
// drains interleave with single Polls. Burst size deliberately does not
// divide the completion count, so the final drain is partial.
func testBurstPoll(t *testing.T, env Env) {
	const n = 45
	mr := env.T.OpenRegion(env.EP[1], n*8)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("writer", func(p transport.Ctx) {
		src := make([]byte, n*8)
		cq := qa.SendCQ()
		burst := make([]transport.Completion, 7)
		got := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(src[i*8:], uint64(i)+1)
			qa.Write(p, src[i*8:(i+1)*8], transport.Addr{MR: mr, Off: i * 8},
				transport.WriteOptions{Signaled: true, ID: uint64(i) + 1})
		}
		deadline := p.Now() + waitFor
		for len(got) < n {
			if p.Now() > deadline {
				t.Errorf("drained only %d/%d completions before deadline", len(got), n)
				return
			}
			k := cq.PollBatch(p, burst)
			if k > len(burst) {
				t.Errorf("PollBatch wrote %d entries into a buffer of %d", k, len(burst))
				return
			}
			for i := 0; i < k; i++ {
				got = append(got, burst[i].ID)
			}
			// Interleave a single poll after each burst: mixing drain
			// styles must not reorder or duplicate.
			if c, ok := cq.Poll(p); ok {
				got = append(got, c.ID)
			}
			if k == 0 && len(got) < n {
				cq.WaitNonEmpty(p, waitFor)
			}
		}
		for i, id := range got {
			if id != uint64(i)+1 {
				t.Errorf("completion %d: got ID %d, want %d (burst drain broke RC order)", i, id, i+1)
				return
			}
		}
		if cq.PollBatch(p, burst) != 0 {
			t.Errorf("PollBatch on a drained CQ returned entries")
		}
	})
	env.Run()
}

// testReadBack pins one-sided READ: the reader sees bytes the region
// owner stored, both via ReadSync and via an async signaled Read.
func testReadBack(t *testing.T, env Env) {
	mr := env.T.OpenRegion(env.EP[1], 16)
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])
	mr.Store(0, []byte("remote-bytes!!!!"))

	env.Go("reader", func(p transport.Ctx) {
		dst := make([]byte, 16)
		qa.ReadSync(p, dst, transport.Addr{MR: mr, Off: 0})
		if string(dst) != "remote-bytes!!!!" {
			t.Errorf("ReadSync got %q", dst)
		}
		dst2 := make([]byte, 6)
		qa.Read(p, dst2, transport.Addr{MR: mr, Off: 0}, true, 3)
		c, ok := qa.SendCQ().WaitTimeout(p, waitFor)
		if !ok || c.ID != 3 || c.Op != transport.OpRead {
			t.Errorf("read completion: got (%+v,%v)", c, ok)
			return
		}
		if string(dst2) != "remote" {
			t.Errorf("async read got %q", dst2)
		}
	})
	env.Run()
}

// testReopenedRegionZero pins the region lifecycle: a region opened right
// after a same-size region was dirtied (locally and by a remote WRITE)
// and deregistered reads all zeros, whether or not the backend recycles
// the old memory.
func testReopenedRegionZero(t *testing.T, env Env) {
	const size = 4096
	qa, _ := env.T.Dial(env.EP[0], env.EP[1])

	env.Go("owner", func(p transport.Ctx) {
		fill := make([]byte, size)
		for i := range fill {
			fill[i] = byte(i) | 1
		}
		old := env.T.OpenRegion(env.EP[1], size)
		old.Store(0, fill)
		qa.Write(p, fill[:256], transport.Addr{MR: old, Off: size - 256},
			transport.WriteOptions{Signaled: true, ID: 1})
		if c, ok := qa.SendCQ().WaitTimeout(p, waitFor); !ok || c.ID != 1 {
			t.Errorf("write completion: got (%+v,%v)", c, ok)
			return
		}
		old.Deregister()
		p.Sleep(time.Microsecond)
		got := make([]byte, size)
		env.T.OpenRegion(env.EP[1], size).Load(0, got)
		for i, b := range got {
			if b != 0 {
				t.Errorf("reopened region byte %d = %#x, want 0 (stale bytes of a deregistered region)", i, b)
				return
			}
		}
	})
	env.Run()
}

// testMulticastDrop pins UD semantics: a member with a posted receive
// delivers; a member without one drops and counts the loss.
func testMulticastDrop(t *testing.T, env Env) {
	g := env.T.Multicast(env.EP[0], env.EP[1])
	ready := g.Member(0)

	env.Go("sender", func(p transport.Ctx) {
		buf := make([]byte, 32)
		ready.PostRecv(buf, 9)
		// Member 1 posts nothing.
		g.Send(p, env.EP[2], []byte("fanout"), false)
		c, ok := ready.RecvCQ().WaitTimeout(p, waitFor)
		if !ok || string(c.Buf[:c.Bytes]) != "fanout" {
			t.Errorf("member 0 delivery: got (%+v,%v)", c, ok)
		}
	})
	env.Run()

	if got := g.Member(1).DropCount(); got != 1 {
		t.Errorf("member 1 drops = %d, want 1 (no posted receive)", got)
	}
	if got := g.Member(1).RecvCQ().Len(); got != 0 {
		t.Errorf("member 1 has %d completions, want 0", got)
	}
}
