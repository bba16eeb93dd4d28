package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// tinySizes keep every workload's round well under a second.
var tinySizes = sizes{
	shuffleFlows: 2,
	shuffleBytes: 64 << 10,
	fleetFlows:   8,
	fleetTuples:  100,
	streamTuples: 20_000,
	rttTrips:     100,
}

func tinyConfig(t *testing.T, workload string, traced bool) config {
	return config{workload: workload, seed: 1, traced: traced, outDir: t.TempDir(), sizes: tinySizes, minRounds: 1}
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runReport runs cfg through the same path as the command and parses
// the result line.
func runReport(t *testing.T, cfg config) (result, int) {
	t.Helper()
	var out, errs bytes.Buffer
	code := report(cfg, &out, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", cfg.workload, err, out.String(), errs.String())
	}
	return res, code
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryMetricPrintsWithUnit runs each workload untraced and traced
// and checks that the result carries exactly the metrics BENCHMARK.json
// declares, with their units, and that end-to-end metrics are non-zero.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			res, code := runReport(t, tinyConfig(t, w.Name, traced))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: code %d, result %+v", w.Name, traced, code, res)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestInjectedFaultFailsRun plants one dropped and one corrupted tuple in
// the verify path of every workload: each must be counted as failed and
// fail the run.
func TestInjectedFaultFailsRun(t *testing.T) {
	for _, w := range workloads {
		for _, f := range []fault{faultDrop, faultCorrupt} {
			cfg := tinyConfig(t, w.name, false)
			cfg.inject = f
			res, code := runReport(t, cfg)
			if code != 1 || res.Correct || res.Failed != 1 {
				t.Errorf("%s fault %d: code %d, correct %v, failed %d; want 1, false, 1", w.name, f, code, res.Correct, res.Failed)
			}
			st, err := execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r := st.values()["failed_ratio"]; r <= 0 {
				t.Errorf("%s fault %d: failed_ratio %v, want > 0", w.name, f, r)
			}
		}
	}
}

// TestSeedChangesKeysNotCounts: another seed scrambles every key (and so
// the routing of the shuffle's tuples) but moves the same number of
// tuples.
func TestSeedChangesKeysNotCounts(t *testing.T) {
	a, b := newKeyspace(1), newKeyspace(2)
	for i := 0; i < 1000; i++ {
		if a.key(3, 1, i) == b.key(3, 1, i) {
			t.Fatalf("seeds 1 and 2 give key %d the same value", i)
		}
		if f, s, x := b.decode(b.key(3, 1, i)); f != 3 || s != 1 || x != i {
			t.Fatalf("decode(key(3,1,%d)) = %d,%d,%d", i, f, s, x)
		}
	}
	for _, name := range []string{"des-shuffle", "chan-stream"} {
		var runs [2]*runStats
		for i := range runs {
			cfg := tinyConfig(t, name, false)
			cfg.seed = int64(i + 1)
			st, err := execute(cfg)
			if err != nil || st.failed != 0 {
				t.Fatalf("%s seed %d: err %v, failed %d", name, cfg.seed, err, st.failed)
			}
			runs[i] = st
		}
		if runs[0].attempted != runs[1].attempted || runs[0].measured[0].tuples != runs[1].measured[0].tuples {
			t.Errorf("%s: counts differ between seeds: %d/%d vs %d/%d", name,
				runs[0].attempted, runs[0].measured[0].tuples, runs[1].attempted, runs[1].measured[0].tuples)
		}
		if name == "des-shuffle" && *runs[0].first == *runs[1].first {
			t.Errorf("des-shuffle: seeds 1 and 2 route identically: %+v", *runs[0].first)
		}
	}
}

// TestTracingLeavesVirtualResultsAlone: traced and untraced rounds of a
// DES workload give identical virtual results.
func TestTracingLeavesVirtualResultsAlone(t *testing.T) {
	for _, name := range []string{"des-shuffle", "des-fleet"} {
		cfg := tinyConfig(t, name, true)
		st, err := execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.failed != 0 {
			t.Fatalf("%s: %v", name, st.problems)
		}
		if u, tr := st.measured[0].virt, st.traced[0].virt; u != tr || u.events == 0 {
			t.Errorf("%s: untraced %+v, traced %+v", name, u, tr)
		}
		if st.tr.verbs[verbWrite].calls.Load() == 0 || len(st.tr.spans) == 0 {
			t.Errorf("%s: traced run recorded no writes or spans", name)
		}
	}
}

func TestHostSharesFoldsProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x += len(strings.Repeat("x", 64))
	}
	pprof.StopCPUProfile()
	shares, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for l, s := range shares {
		if !known[l] {
			t.Errorf("unexpected layer %q", l)
		}
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v (%v), want 1", sum, shares)
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "chan-rtt", "--trace", "2"},
		{"--workload", "chan-rtt", "--bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
