// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload from a single process, checks
// every delivered tuple, and prints its metrics by name with their
// units; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With -trace 1 the second half of the run is traced
// (transport decorator, backend verb recorder, spans, CPU profile) and
// the metrics are the per-layer ones; the span and count dump is written
// as JSON under -out.
//
// Run it through run.py, which builds it inside the checkout:
//
//	python3 perfbench/run.py --workload des-shuffle --seed 1 --seconds 10 --trace 0
//
// A run that finds a lost, duplicated or corrupt tuple, a failed
// operation, or virtual results that differ between rounds of one seed
// prints its result with "correct": false and exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// watchdog bounds a run that hangs (a lost wake-up on the goroutine
// backend never returns on its own).
const watchdog = 170 * time.Second

func main() {
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v, aborting\n", watchdog)
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: des-shuffle, des-fleet, chan-stream or chan-rtt")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	out := fs.String("out", filepath.Join("bench", "perfbench"), "directory the traced run's span and count dump is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloadByName(*name) == nil || (*trace != 0 && *trace != 1) || *seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload des-shuffle|des-fleet|chan-stream|chan-rtt, -trace 0|1 and -seconds >= 0\n")
		return 2
	}
	cfg := config{
		workload:  *name,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		traced:    *trace == 1,
		outDir:    *out,
		sizes:     fullSizes,
		minRounds: 3,
	}
	return report(cfg, stdout, stderr)
}

// report executes cfg, prints the human-readable table and the JSON
// result line, and returns the exit status.
func report(cfg config, stdout, stderr io.Writer) int {
	st, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	vals := st.values()
	for _, p := range st.problems {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", p)
	}

	defs := endToEndMetrics
	if cfg.traced {
		defs = perLayerMetrics()
	}
	fmt.Fprintf(stdout, "%s seed=%d: %d measured rounds untraced, %d traced\n",
		cfg.workload, cfg.seed, len(st.measured), len(st.traced))
	for _, q := range []struct {
		name string
		f    func(r *roundResult) float64
	}{
		{"setup_s", func(r *roundResult) float64 { return r.setup.Seconds() }},
		{"tuples_per_s", func(r *roundResult) float64 { return ratio(float64(r.tuples), r.data.Seconds()) }},
	} {
		xs := each(st.measured, q.f)
		sort.Float64s(xs)
		fmt.Fprintf(stdout, "  %s over %d rounds: min %.6g, median %.6g, max %.6g\n", q.name, len(xs), xs[0], median(xs), xs[len(xs)-1])
	}
	shown := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), detailMetrics...) {
		shown[d.name] = true
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	for _, d := range defs {
		if !shown[d.name] {
			fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", d.name, vals[d.name], d.unit)
		}
	}
	if st.profileErr != nil {
		fmt.Fprintf(stderr, "perfbench: host shares unavailable: %v\n", st.profileErr)
	}
	if cfg.traced {
		path, err := writeDump(cfg, st, vals)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "  spans and counts: %s\n", path)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeDump writes the traced run's spans, counts and metrics as one
// JSON document.
func writeDump(cfg config, st *runStats, vals map[string]float64) (string, error) {
	tr := st.tr
	counts := map[string]int64{"rounds": int64(len(st.traced)), "spans_dropped": tr.dropped}
	for i, name := range verbNames {
		counts["transport."+name+".calls"] = tr.verbs[i].calls.Load()
		counts["transport."+name+".ns"] = tr.verbs[i].ns.Load()
	}
	counts["transport.write.wrs"] = tr.writeWRs.Load()
	counts["transport.write.bytes"] = tr.writeBytes.Load()
	for k, v := range tr.kinds {
		counts["fabric.verbs."+k] = int64(v)
	}
	tr.mu.Lock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Metrics  map[string]float64 `json:"metrics"`
		Counts   map[string]int64   `json:"counts"`
		Spans    []span             `json:"spans"`
	}{cfg.workload, cfg.seed, vals, counts, tr.spans}
	data, err := json.Marshal(doc)
	tr.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
