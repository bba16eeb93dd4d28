package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dfi_tuples_pushed_total", "Tuples pushed.", Labels{"slot": "0"})
	c.Add(41)
	c.Inc()
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same series returns the same instrument.
	if c2 := r.Counter("dfi_tuples_pushed_total", "", Labels{"slot": "0"}); c2 != c {
		t.Fatalf("re-registration returned a different counter")
	}
	r.Counter("dfi_tuples_pushed_total", "", Labels{"slot": "1"}).Add(7)
	g := r.Gauge("dfi_epoch", "Membership epoch.", nil)
	g.Set(3)
	r.Gauge("dfi_bandwidth_mbps", "", nil).Set(1234.5)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# TYPE dfi_tuples_pushed_total counter",
		"# HELP dfi_tuples_pushed_total Tuples pushed.",
		`dfi_tuples_pushed_total{slot="0"} 42`,
		`dfi_tuples_pushed_total{slot="1"} 7`,
		"# TYPE dfi_epoch gauge",
		"dfi_epoch 3",
		"dfi_bandwidth_mbps 1234.5",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q:\n%s", w, out)
		}
	}
	// Deterministic: two renders are byte-identical.
	var b2 bytes.Buffer
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Errorf("render is not deterministic")
	}
	// Families sorted by name.
	if strings.Index(out, "dfi_bandwidth_mbps") > strings.Index(out, "dfi_epoch") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestFuncCollectors(t *testing.T) {
	r := NewRegistry()
	v := 10.0
	r.RegisterCounterFunc("dfi_live_total", "", nil, func() float64 { return v })
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dfi_live_total 10\n") {
		t.Fatalf("func counter not rendered: %s", b.String())
	}
	v = 11
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dfi_live_total 11\n") {
		t.Fatalf("func counter not live: %s", b.String())
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dfi_latency_seconds", "", []float64{0.001, 0.01, 0.1}, nil)
	h.Observe(0.0005)
	h.Observe(0.005)
	h.ObserveN(0.05, 2)
	h.Observe(5)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		`dfi_latency_seconds_bucket{le="0.001"} 1`,
		`dfi_latency_seconds_bucket{le="0.01"} 2`,
		`dfi_latency_seconds_bucket{le="0.1"} 4`,
		`dfi_latency_seconds_bucket{le="+Inf"} 5`,
		"dfi_latency_seconds_count 5",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("histogram missing %q:\n%s", w, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
}

func TestValidation(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "bad metric name", func() { r.Counter("9bad", "", nil) })
	mustPanic(t, "bad label name", func() { r.Counter("ok_total", "", Labels{"9bad": "x"}) })
	r.Counter("typed_total", "", nil)
	mustPanic(t, "type mismatch", func() { r.Gauge("typed_total", "", nil) })
	r.RegisterGaugeFunc("fn_gauge", "", nil, func() float64 { return 0 })
	mustPanic(t, "double func registration", func() {
		r.RegisterGaugeFunc("fn_gauge", "", nil, func() float64 { return 0 })
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	f()
}

func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("dfi_a_total", "help with\nnewline", Labels{"pair": `x\y"z`}).Add(3)
	r.Gauge("dfi_b", "", nil).Set(2.5)
	r.Histogram("dfi_h_seconds", "", []float64{1}, nil).Observe(0.5)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(&b)
	if err != nil {
		t.Fatalf("ParseText: %v\n", err)
	}
	if v := parsed[`dfi_a_total{pair="x\\y\"z"}`]; v != 3 {
		t.Errorf("parsed counter = %v, want 3 (parsed: %v)", v, parsed)
	}
	if v := parsed["dfi_b"]; v != 2.5 {
		t.Errorf("parsed gauge = %v, want 2.5", v)
	}
	if v := parsed[`dfi_h_seconds_bucket{le="+Inf"}`]; v != 1 {
		t.Errorf("parsed histogram +Inf bucket = %v, want 1", v)
	}
	if got := SumSeries(parsed, "dfi_a_total"); got != 3 {
		t.Errorf("SumSeries = %v, want 3", got)
	}
}

func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{
		"novalue",
		"name notanumber",
		"9bad 1",
		"dup 1\ndup 2",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q): expected error", bad)
		}
	}
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {42, "42"}, {-7, "-7"}, {2.5, "2.5"}, {1e15, "1e+15"},
		{math.Inf(1), "+Inf"},
	} {
		if got := formatValue(tc.v); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestEventLogRingAndJSONL(t *testing.T) {
	l := NewEventLog(2)
	for i := 0; i < 3; i++ {
		l.Emit(Event{T: time.Duration(i), Node: "node0", Type: EvSegmentWrite, Flow: "shuffle", Seq: uint64(i)})
	}
	l.Emit(Event{T: 10, Node: "node1", Type: EvEviction, Detail: "lease expired"})
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3 (2 ring + 1)", len(evs))
	}
	// Oldest node0 event evicted; order preserved across nodes.
	if evs[0].Seq != 1 || evs[1].Seq != 2 || evs[2].Node != "node1" {
		t.Fatalf("unexpected retained events: %+v", evs)
	}
	if l.Total() != 4 {
		t.Errorf("Total = %d, want 4", l.Total())
	}
	var b bytes.Buffer
	n, dropped, err := l.WriteJSONL(&b)
	if err != nil || n != 3 || dropped != 1 {
		t.Fatalf("WriteJSONL = (%d, %d, %v), want (3, 1, nil)", n, dropped, err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3", len(lines))
	}
	if !strings.Contains(lines[2], `"type":"eviction"`) || !strings.Contains(lines[2], `"detail":"lease expired"`) {
		t.Errorf("JSONL missing fields: %s", lines[2])
	}
	// Optional zero fields omitted.
	if strings.Contains(lines[2], `"flow"`) || strings.Contains(lines[2], `"bytes"`) {
		t.Errorf("JSONL should omit zero optional fields: %s", lines[2])
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("dfi_x_total", "", nil).Add(9)
	events := NewEventLog(8)
	events.Emit(Event{Node: "node0", Type: EvEpoch, Epoch: 2})
	status := func() any { return map[string]any{"flows": 1} }
	s, err := Serve("127.0.0.1:0", r, status, events)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "dfi_x_total 9") {
		t.Errorf("/metrics: %s", body)
	}
	if body := get("/status"); !strings.Contains(body, `"flows": 1`) {
		t.Errorf("/status: %s", body)
	}
	if body := get("/events"); !strings.Contains(body, `"type":"epoch"`) {
		t.Errorf("/events: %s", body)
	}
}

// TestConcurrentScrape hammers every instrument type from writer
// goroutines while readers render, parse, and dump concurrently. Run
// under -race this is the registry's core safety contract.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	events := NewEventLog(64)
	c := r.Counter("dfi_c_total", "", nil)
	g := r.Gauge("dfi_g", "", nil)
	h := r.Histogram("dfi_h", "", []float64{1, 2, 4}, nil)
	r.RegisterGaugeFunc("dfi_fn", "", nil, func() float64 { return float64(c.Value()) })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 5))
				events.Emit(Event{Node: fmt.Sprintf("node%d", w), Type: EvSegmentWrite, Seq: uint64(i)})
				// New series registration racing with render.
				r.Counter("dfi_dyn_total", "", Labels{"w": fmt.Sprint(w % 2)}).Inc()
			}
		}(w)
	}
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b bytes.Buffer
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				if _, err := ParseText(&b); err != nil {
					t.Error(err)
					return
				}
				_, _, _ = events.WriteJSONL(io.Discard)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}
