package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"dfi/internal/core"
	"dfi/internal/transport"
)

// sizes fixes how much work one round of each workload does.
type sizes struct {
	shuffleFlows int // sequential 1:8 shuffles per des-shuffle round
	shuffleBytes int // bytes pushed by each of a shuffle's 2 sources
	fleetFlows   int // concurrent shared-ring flows per des-fleet round
	fleetTuples  int // tuples per fleet flow
	streamTuples int // tuples per chan-stream round
	rttTrips     int // round trips per chan-rtt round
}

// fullSizes are the benchmark's sizes: each des-shuffle flow is the
// Figure 7a point (2 sources × 8 MiB of 1 KiB tuples), the fleet is the
// 256-flow shared-ring scale scenario.
var fullSizes = sizes{
	shuffleFlows: 4,
	shuffleBytes: 8 << 20,
	fleetFlows:   256,
	fleetTuples:  2000,
	streamTuples: 2_000_000,
	rttTrips:     4000,
}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string
	sizes    sizes
	// minRounds is the least number of measured rounds per phase.
	minRounds int
	// inject plants one fault in the verify path of the first round
	// (tests only).
	inject fault
}

// workload is one named set of inputs; round builds a fresh backend and
// runs one complete round of flows on it.
type workload struct {
	name  string
	des   bool
	round func(env *roundEnv) roundResult
}

var workloads = []*workload{
	{name: "des-shuffle", des: true, round: desShuffleRound},
	{name: "des-fleet", des: true, round: desFleetRound},
	{name: "chan-stream", round: chanStreamRound},
	{name: "chan-rtt", round: chanRTTRound},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// roundEnv is what a round needs from the run.
type roundEnv struct {
	seed   int64
	sizes  sizes
	tr     *tracer // nil in untraced rounds
	inject fault
	rec    *transport.Recorder
}

// wrap installs the traced round's decorator and backend recorder.
func (e *roundEnv) wrap(t transport.Transport) transport.Transport {
	if e.tr == nil {
		return t
	}
	e.rec = transport.AttachRecorder(t, 1)
	return &tracedTransport{Transport: t, tr: e.tr}
}

// virtualStats are a DES round's virtual-time results. They depend only
// on the seed, so every round of a run must produce the same values,
// traced or not.
type virtualStats struct {
	events     uint64
	flows      int
	makespan   time.Duration // data-phase virtual time, summed over flow groups
	bytes      int64         // payload bytes delivered
	linkUtil   float64       // busiest link's busy time over the virtual run
	regPeak    int64         // highest registered memory, all nodes
	leaseRPCs  uint64
	released   uint64 // shared-ring slots released, all links
	acquired   [4]uint64
	refunded   [4]uint64
	sourceStat coreStats
}

// coreStats sums the flows' core.SourceStats.
type coreStats struct {
	pushed      uint64
	segments    uint64
	stallRemote time.Duration
	stallLocal  time.Duration
	backoff     time.Duration
	probes      int
	misses      int
	retransmits int
}

func (c *coreStats) add(o coreStats) {
	c.pushed += o.pushed
	c.segments += o.segments
	c.stallRemote += o.stallRemote
	c.stallLocal += o.stallLocal
	c.backoff += o.backoff
	c.probes += o.probes
	c.misses += o.misses
	c.retransmits += o.retransmits
}

func sourceStats(s *core.Source) coreStats {
	st := s.Stats()
	return coreStats{
		pushed:      st.TuplesPushed,
		segments:    st.SegmentsWritten,
		stallRemote: st.StallRemote,
		stallLocal:  st.StallLocal,
		backoff:     st.Backoff,
		probes:      st.FooterProbes,
		misses:      st.ProbeMisses,
		retransmits: st.Retransmits,
	}
}

// roundResult is one round's measurements.
type roundResult struct {
	err       error
	total     time.Duration // host time of the whole round
	setup     time.Duration // backend + registry build, FlowInit and opens
	flowInit  time.Duration
	open      time.Duration
	data      time.Duration // host time from the opens' barrier to the last target
	tuples    int64         // verified tuples delivered
	attempted int64
	failed    int64
	problems  []string

	virt virtualStats // DES only
	core coreStats    // goroutine backend (the DES keeps it in virt)

	rtts      []time.Duration
	pushNs    time.Duration
	pushes    int64
	consumeNs time.Duration
	consumes  int64
}

func (r *roundResult) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *roundResult) addChecker(c *checker) {
	r.attempted += c.expected()
	r.tuples += c.distinct
	if n := c.failures(); n > 0 {
		r.fail(n, "%v", c)
	}
}

// runStats gathers a whole run.
type runStats struct {
	measured []roundResult // untraced, after the warm-up round
	traced   []roundResult
	first    *virtualStats // the first round's virtual results

	attempted, failed int64
	problems          []string

	allocBytes uint64 // heap allocated over the measured untraced rounds
	mallocs    uint64
	gcCycles   uint32
	gcCPU      float64 // GC share of CPU time over the measured rounds
	shares     map[string]float64
	tr         *tracer
	profileErr error
}

func (s *runStats) add(w *workload, r roundResult) {
	s.attempted += r.attempted
	s.failed += r.failed
	s.problems = append(s.problems, r.problems...)
	if !w.des {
		return
	}
	if s.first == nil {
		v := r.virt
		s.first = &v
	} else if r.virt != *s.first {
		s.failed++
		s.problems = append(s.problems, fmt.Sprintf("virtual results differ between rounds of one seed: %+v vs %+v", r.virt, *s.first))
	}
}

// cpuSeconds reads the runtime's cumulative GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	ss := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(ss)
	if ss[0].Value.Kind() == rtmetrics.KindFloat64 {
		gc = ss[0].Value.Float64()
	}
	if ss[1].Value.Kind() == rtmetrics.KindFloat64 {
		total = ss[1].Value.Float64()
	}
	return gc, total
}

// execute runs the configured workload: one warm-up round, then measured
// untraced rounds until the time is up (the first half of it in a traced
// run, whose second half runs traced rounds). Every round, warm-up
// included, is verified.
func execute(cfg config) (*runStats, error) {
	w := workloadByName(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.minRounds < 1 {
		cfg.minRounds = 1
	}
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	untracedUntil := deadline
	if cfg.traced {
		untracedUntil = start.Add(cfg.seconds / 2)
	}
	st := &runStats{}
	round := func(tr *tracer, inject fault) (roundResult, error) {
		env := &roundEnv{seed: cfg.seed, sizes: cfg.sizes, tr: tr, inject: inject}
		// Every round starts from a collected heap, so the previous
		// round's garbage does not land in this round's set-up time. The
		// round's own allocation and collection stay measured.
		runtime.GC()
		t0 := time.Now()
		r := w.round(env)
		r.total = time.Since(t0)
		if r.err != nil {
			return r, fmt.Errorf("%s: %w", w.name, r.err)
		}
		if env.rec != nil {
			if err := tr.addRecorder(env.rec); err != nil {
				return r, err
			}
		}
		st.add(w, r)
		return r, nil
	}

	if _, err := round(nil, cfg.inject); err != nil {
		return nil, err
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := cpuSeconds()
	for len(st.measured) < cfg.minRounds || time.Now().Before(untracedUntil) {
		r, err := round(nil, faultNone)
		if err != nil {
			return nil, err
		}
		st.measured = append(st.measured, r)
	}
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := cpuSeconds()
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.gcCycles = m1.NumGC - m0.NumGC
	if cpu1 > cpu0 {
		st.gcCPU = (gc1 - gc0) / (cpu1 - cpu0)
	}
	if !cfg.traced {
		return st, nil
	}

	st.tr = newTracer(w.des)
	var prof bytes.Buffer
	profiling := pprof.StartCPUProfile(&prof) == nil
	for len(st.traced) < cfg.minRounds || time.Now().Before(deadline) {
		r, err := round(st.tr, faultNone)
		if err != nil {
			if profiling {
				pprof.StopCPUProfile()
			}
			return nil, err
		}
		st.traced = append(st.traced, r)
	}
	if profiling {
		pprof.StopCPUProfile()
		st.shares, st.profileErr = hostShares(prof.Bytes())
	} else {
		st.profileErr = fmt.Errorf("cpu profile could not be started")
	}
	return st, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank q-quantile of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func each(rs []roundResult, f func(r *roundResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = f(&rs[i])
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics are measured on the untraced rounds; every workload
// reports every one of them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"tuples_per_s", "1/s"},
	{"alloc_mb", "MB"},
}

type metricDef struct{ name, unit string }

// detailMetrics are the workload-specific end-to-end figures. They are
// printed in the report of every run and also in the traced run's
// per-layer result (not every workload has a virtual clock or a round
// trip, and a gated metric must exist on every workload).
var detailMetrics = []metricDef{
	{"virt_gib_s", "GiB/s"},
	{"rtt_p50_us", "us"},
	{"rtt_p99_us", "us"},
	{"rtt_samples", "count"},
	{"failed_ratio", "ratio"},
}

func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_tuple", "count"},
		{"sim.events_per_host_s", "1/s"},
	}
	for _, k := range recorderKinds {
		defs = append(defs, metricDef{"fabric.verbs." + k.name, "count"})
	}
	defs = append(defs,
		metricDef{"fabric.bytes_per_write", "B"},
		metricDef{"fabric.link_util", "ratio"},
		metricDef{"fabric.registered_mb", "MB"},
	)
	for _, v := range verbNames {
		defs = append(defs, metricDef{"transport." + v + ".calls", "count"}, metricDef{"transport." + v + ".ns", "ns"})
	}
	defs = append(defs,
		metricDef{"core.push_ns", "ns"},
		metricDef{"core.consume_ns", "ns"},
		metricDef{"core.flow_init_s", "s"},
		metricDef{"core.open_s", "s"},
		metricDef{"core.tuples_per_segment", "count"},
		metricDef{"core.stall_remote_us", "us"},
		metricDef{"core.stall_local_us", "us"},
		metricDef{"core.backoff_us", "us"},
		metricDef{"core.probe_miss_ratio", "ratio"},
		metricDef{"core.retransmits", "count"},
		metricDef{"sharedring.occupancy_max", "count"},
		metricDef{"sharedring.released", "count"},
	)
	for i := 0; i < len(fleetTenants); i++ {
		defs = append(defs,
			metricDef{fmt.Sprintf("sharedring.acquired.%s", fleetTenants[i]), "count"},
			metricDef{fmt.Sprintf("sharedring.refunded.%s", fleetTenants[i]), "count"})
	}
	defs = append(defs,
		metricDef{"registry.lease_renew_rpcs", "count"},
		metricDef{"registry.renew_rpcs_per_flow", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_fraction", "ratio"},
		metricDef{"runtime.mallocs_per_tuple", "count"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{"host_share." + l, "ratio"})
	}
	defs = append(defs, detailMetrics...)
	defs = append(defs,
		metricDef{"trace.overhead_s", "s"},
		metricDef{"trace.spans", "count"},
	)
	return defs
}

// values computes every metric the run can report, by name. Counts are
// per round; host times are medians over rounds.
func (s *runStats) values() map[string]float64 {
	v := map[string]float64{}
	m := s.measured
	n := float64(len(m))

	// End to end, untraced rounds.
	v["setup_s"] = median(each(m, func(r *roundResult) float64 { return r.setup.Seconds() }))
	v["tuples_per_s"] = median(each(m, func(r *roundResult) float64 { return ratio(float64(r.tuples), r.data.Seconds()) }))
	v["alloc_mb"] = float64(s.allocBytes) / n / 1e6
	if s.first != nil {
		v["virt_gib_s"] = ratio(float64(s.first.bytes), s.first.makespan.Seconds()) / (1 << 30)
	}
	var rtts []time.Duration
	for i := range m {
		rtts = append(rtts, m[i].rtts...)
	}
	v["rtt_p50_us"] = float64(percentile(rtts, 0.50)) / 1e3
	v["rtt_p99_us"] = float64(percentile(rtts, 0.99)) / 1e3
	v["rtt_samples"] = float64(len(rtts))
	v["failed_ratio"] = ratio(float64(s.failed), float64(s.attempted))

	// Host-time layer figures that tracing would perturb also come from
	// the untraced rounds.
	var tuples int64
	for i := range m {
		tuples += m[i].tuples
	}
	v["core.flow_init_s"] = median(each(m, func(r *roundResult) float64 { return r.flowInit.Seconds() }))
	v["core.open_s"] = median(each(m, func(r *roundResult) float64 { return r.open.Seconds() }))
	v["runtime.gc_cycles"] = float64(s.gcCycles) / n
	v["runtime.gc_cpu_fraction"] = s.gcCPU
	v["runtime.mallocs_per_tuple"] = ratio(float64(s.mallocs), float64(tuples))
	if s.first != nil {
		v["sim.events_per_host_s"] = median(each(m, func(r *roundResult) float64 { return ratio(float64(r.virt.events), r.total.Seconds()) }))
	}
	var pushNs, consumeNs time.Duration
	var pushes, consumes int64
	for i := range m {
		pushNs += m[i].pushNs
		pushes += m[i].pushes
		consumeNs += m[i].consumeNs
		consumes += m[i].consumes
	}
	v["core.push_ns"] = ratio(float64(pushNs), float64(pushes))
	v["core.consume_ns"] = ratio(float64(consumeNs), float64(consumes))

	// Core counters: virtual on the DES (identical in every round),
	// averaged over the measured rounds on the goroutine backend.
	var cs coreStats
	rounds := 1.0
	if s.first != nil {
		cs = s.first.sourceStat
	} else {
		for i := range m {
			cs.add(m[i].core)
		}
		rounds = n
	}
	v["core.tuples_per_segment"] = ratio(float64(cs.pushed), float64(cs.segments))
	v["core.stall_remote_us"] = float64(cs.stallRemote) / 1e3 / rounds
	v["core.stall_local_us"] = float64(cs.stallLocal) / 1e3 / rounds
	v["core.backoff_us"] = float64(cs.backoff) / 1e3 / rounds
	v["core.probe_miss_ratio"] = ratio(float64(cs.misses), float64(cs.probes))
	v["core.retransmits"] = float64(cs.retransmits) / rounds

	if f := s.first; f != nil {
		v["sim.events"] = float64(f.events)
		v["sim.events_per_tuple"] = ratio(float64(f.events), float64(m[0].tuples))
		v["fabric.link_util"] = f.linkUtil
		v["fabric.registered_mb"] = float64(f.regPeak) / 1e6
		v["sharedring.released"] = float64(f.released)
		for i, t := range fleetTenants {
			v["sharedring.acquired."+t] = float64(f.acquired[i])
			v["sharedring.refunded."+t] = float64(f.refunded[i])
		}
		v["registry.lease_renew_rpcs"] = float64(f.leaseRPCs)
		v["registry.renew_rpcs_per_flow"] = ratio(float64(f.leaseRPCs), float64(f.flows))
	}

	// Traced rounds: verbs, spans, profile.
	if tr := s.tr; tr != nil && len(s.traced) > 0 {
		nt := float64(len(s.traced))
		for _, k := range recorderKinds {
			v["fabric.verbs."+k.name] = tr.kinds[k.name] / nt
		}
		v["fabric.bytes_per_write"] = ratio(float64(tr.writeBytes.Load()), float64(tr.writeWRs.Load()))
		for i, name := range verbNames {
			calls := tr.verbs[i].calls.Load()
			v["transport."+name+".calls"] = float64(calls) / nt
			v["transport."+name+".ns"] = ratio(float64(tr.verbs[i].ns.Load()), float64(calls))
		}
		v["sharedring.occupancy_max"] = float64(tr.occupancy.Load())
		for _, l := range layers {
			v["host_share."+l] = s.shares[l]
		}
		v["trace.overhead_s"] = median(each(s.traced, func(r *roundResult) float64 { return r.total.Seconds() })) -
			median(each(m, func(r *roundResult) float64 { return r.total.Seconds() }))
		tr.mu.Lock()
		v["trace.spans"] = float64(len(tr.spans))
		tr.mu.Unlock()
	}
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v[k] = 0
		}
	}
	return v
}
