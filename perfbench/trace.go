package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dfi/internal/metrics"
	"dfi/internal/transport"
)

// The traced run observes the program from the outside: a transport
// decorator counts and times the verbs core and sharedring post, the
// backend's own tracer hook (transport.AttachRecorder) counts executed
// verbs by kind, spans mark each flow's phases, and a CPU profile is
// folded into per-package host-time shares. Nothing inside the program
// changes, and none of it schedules a sim event, so the virtual results
// of traced and untraced rounds are identical (the run checks it).

// verb indexes the transport calls the decorator counts and times.
type verb int

const (
	verbWrite verb = iota
	verbWriteBatch
	verbRead
	verbFetchAdd
	verbPollBatch
	verbOpenRegion
	numVerbs
)

var verbNames = [numVerbs]string{"write", "write_batch", "read", "fetch_add", "poll_batch", "open_region"}

// recorderKinds are the verb kinds the backend tracer reports, with the
// per-layer metric suffix each is printed under.
var recorderKinds = []struct {
	kind transport.OpKind
	name string
}{
	{transport.OpWrite, "write"},
	{transport.OpRead, "read"},
	{transport.OpSend, "send"},
	{transport.OpRecv, "recv"},
	{transport.OpFetchAdd, "fetch_add"},
	{transport.OpCompareSwap, "cmp_swap"},
}

type verbStat struct{ calls, ns atomic.Int64 }

// maxSpans bounds the in-memory span log of one traced run.
const maxSpans = 1 << 20

// span is one traced interval: host times are nanoseconds since the run
// started; virtual times are sim nanoseconds (-1 on the goroutine
// backend, which has no virtual clock). On the DES a blocking call parks
// its sim process while the kernel runs others, so a span's host
// duration includes their work; the virtual duration does not.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Flow   string `json:"flow"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	VStart int64  `json:"virt_start_ns"`
	VEnd   int64  `json:"virt_end_ns"`
}

// tracer collects one traced run's observations. Its methods are safe
// for concurrent use, and a nil *tracer records nothing.
type tracer struct {
	start time.Time
	// timeVerbs is false on the DES. There every verb post charges its
	// posting overhead as simulated CPU time, which parks the poster
	// while the kernel runs other processes, so host time around the call
	// measures their work, not the verb's (in des-fleet it read 0.6 ms per
	// WRITE). Only calls are counted there; host_share.fabric attributes
	// the backend's host time instead. OpenRegion never parks and is
	// timed on both backends.
	timeVerbs bool

	verbs      [numVerbs]verbStat
	writeWRs   atomic.Int64
	writeBytes atomic.Int64
	occupancy  atomic.Int64 // highest shared-ring occupancy sampled

	mu      sync.Mutex
	spans   []span
	dropped int64
	nextID  int64
	kinds   map[string]float64 // backend-traced verbs by kind, all rounds
}

func newTracer(des bool) *tracer {
	return &tracer{start: time.Now(), timeVerbs: !des, kinds: map[string]float64{}}
}

func (t *tracer) timed(v verb, t0 time.Time) {
	t.verbs[v].calls.Add(1)
	if v == verbOpenRegion || t.timeVerbs {
		t.verbs[v].ns.Add(int64(time.Since(t0)))
	}
}

// id reserves a span id, so children can name a parent that is still
// open.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// span records a closed interval under a reserved id (0 reserves one).
// vstart/vend < 0 mark an interval without virtual time.
func (t *tracer) span(id, parent int64, name, flow string, start, end time.Time, vstart, vend time.Duration) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Flow: flow,
		Start: int64(start.Sub(t.start)), End: int64(end.Sub(t.start)),
		VStart: int64(vstart), VEnd: int64(vend)})
	return id
}

func (t *tracer) sampleOccupancy(v int) {
	for {
		cur := t.occupancy.Load()
		if int64(v) <= cur || t.occupancy.CompareAndSwap(cur, int64(v)) {
			return
		}
	}
}

// addRecorder folds one round's backend verb counts into the run totals.
func (t *tracer) addRecorder(rec *transport.Recorder) error {
	m := metrics.NewRegistry()
	rec.PublishMetrics(m)
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		return err
	}
	parsed, err := metrics.ParseText(&buf)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range recorderKinds {
		t.kinds[k.name] += parsed[fmt.Sprintf("dfi_fabric_ops_total{kind=%q}", k.kind.String())]
	}
	return nil
}

// tracedTransport decorates a backend: queues and completion queues are
// wrapped to count and time verbs, while regions and endpoints pass
// through untouched (backends assert their own concrete types on them).
type tracedTransport struct {
	transport.Transport
	tr *tracer
}

func (t *tracedTransport) Dial(a, b transport.Endpoint) (transport.Queue, transport.Queue) {
	qa, qb := t.Transport.Dial(a, b)
	return t.tr.wrapQueue(qa), t.tr.wrapQueue(qb)
}

func (t *tracedTransport) OpenRegion(ep transport.Endpoint, size int) transport.Region {
	defer t.tr.timed(verbOpenRegion, time.Now())
	return t.Transport.OpenRegion(ep, size)
}

func (t *tracer) wrapQueue(q transport.Queue) transport.Queue {
	return &tracedQueue{Queue: q, tr: t,
		scq: &tracedCQ{CompletionQueue: q.SendCQ(), tr: t},
		rcq: &tracedCQ{CompletionQueue: q.RecvCQ(), tr: t}}
}

type tracedQueue struct {
	transport.Queue
	tr       *tracer
	scq, rcq transport.CompletionQueue
}

func (q *tracedQueue) Write(p transport.Ctx, src []byte, dst transport.Addr, opts transport.WriteOptions) {
	defer q.tr.timed(verbWrite, time.Now())
	q.tr.writeWRs.Add(1)
	q.tr.writeBytes.Add(int64(len(src)))
	q.Queue.Write(p, src, dst, opts)
}

func (q *tracedQueue) WriteBatch(p transport.Ctx, wrs []transport.WriteWR) {
	defer q.tr.timed(verbWriteBatch, time.Now())
	n := 0
	for i := range wrs {
		n += len(wrs[i].Src)
	}
	q.tr.writeWRs.Add(int64(len(wrs)))
	q.tr.writeBytes.Add(int64(n))
	q.Queue.WriteBatch(p, wrs)
}

func (q *tracedQueue) Read(p transport.Ctx, dst []byte, src transport.Addr, signaled bool, id uint64) {
	defer q.tr.timed(verbRead, time.Now())
	q.Queue.Read(p, dst, src, signaled, id)
}

func (q *tracedQueue) FetchAdd(p transport.Ctx, dst transport.Addr, delta uint64) uint64 {
	defer q.tr.timed(verbFetchAdd, time.Now())
	return q.Queue.FetchAdd(p, dst, delta)
}

func (q *tracedQueue) FetchAddChecked(p transport.Ctx, dst transport.Addr, delta uint64) (uint64, bool) {
	defer q.tr.timed(verbFetchAdd, time.Now())
	return q.Queue.FetchAddChecked(p, dst, delta)
}

func (q *tracedQueue) SendCQ() transport.CompletionQueue { return q.scq }
func (q *tracedQueue) RecvCQ() transport.CompletionQueue { return q.rcq }

type tracedCQ struct {
	transport.CompletionQueue
	tr *tracer
}

func (c *tracedCQ) PollBatch(p transport.Ctx, out []transport.Completion) int {
	defer c.tr.timed(verbPollBatch, time.Now())
	return c.CompletionQueue.PollBatch(p, out)
}

// layers are the packages host time is attributed to; "other" collects
// the benchmark itself, the standard library and the remaining packages.
var layers = []string{"sim", "fabric", "core", "sharedring", "registry", "chanloop", "runtime", "other"}

func layerOf(fn string) string {
	for _, l := range []struct{ prefix, layer string }{
		{"dfi/internal/sim.", "sim"},
		{"dfi/internal/fabric.", "fabric"},
		{"dfi/internal/core.", "core"},
		{"dfi/internal/core/", "core"},
		{"dfi/internal/transport/sharedring.", "sharedring"},
		{"dfi/internal/registry.", "registry"},
		{"dfi/internal/transport/chanloop.", "chanloop"},
		{"runtime.", "runtime"},
		{"runtime/", "runtime"},
	} {
		if strings.HasPrefix(fn, l.prefix) {
			return l.layer
		}
	}
	return "other"
}

// hostShares folds a CPU profile (gzipped pprof protobuf, as
// runtime/pprof writes it) into the share of sampled CPU time whose leaf
// frame lies in each layer.
func hostShares(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string table index
		strs     []string
	)
	err = protoFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			var vals []int64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id (first is the leaf)
					ids, err := protoVarints(v, b)
					if err != nil {
						return err
					}
					if s.leaf == 0 && len(ids) > 0 {
						s.leaf = ids[0]
					}
				case 2: // value
					vs, err := protoVarints(v, b)
					if err != nil {
						return err
					}
					for _, x := range vs {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples, nanoseconds]; weight by time.
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			samples = append(samples, s)
		case 4: // Profile.location
			var id, fn uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first entry is the innermost inlined frame
					if fn == 0 {
						return protoFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Profile.function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		shares[layerOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// protoFields walks the fields of one protobuf message, calling fn with
// the field number and either the varint value (wire types 0, 1, 5) or
// the length-delimited bytes (wire type 2).
func protoFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// protoVarints decodes a repeated varint field given as either one
// unpacked value (data == nil) or a packed run.
func protoVarints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
