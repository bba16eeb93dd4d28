package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The benchjson subcommand turns `go test -bench -benchmem` output into a
// JSON regression record and compares runs against a committed baseline:
//
//	go test -run '^$' -bench Fig7 -benchmem . | dfibench benchjson -update BENCH_PR13.json
//	go test -run '^$' -bench Fig7 -benchmem . | dfibench benchjson -compare BENCH_PR13.json
//
// Comparison policy: wall-clock ns/op may regress by at most the
// tolerance (10% default, BENCH_TOLERANCE overrides); every custom
// metric (GiB/s, mpi-over-dfi, ...) is a *virtual-time* result of the
// deterministic simulation and must match the baseline exactly — a
// virtual drift means the change altered simulated behavior, not just
// host speed. allocs/op is also a hard gate: allocation counts don't
// depend on host speed, and per-op allocation creep is exactly how the
// zero-alloc steady-state data path decays (a small absolute slack
// absorbs runtime warm-up jitter). A baseline benchmark missing from
// the run is always a hard failure: a renamed or deleted benchmark (or
// a pattern typo) must not let the gate pass vacuously.
//
// On hosts that differ from the one that recorded the baseline (shared
// CI runners), wall-clock comparison is noise: -wallclock-advisory (or
// BENCH_WALLCLOCK=advisory) reports ns/op regressions as warnings while
// the machine-independent virtual metrics stay the hard gate.

// benchResult is one benchmark's parsed measurements.
type benchResult struct {
	NsOp     float64            `json:"ns_op"`
	BOp      float64            `json:"b_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the on-disk record: the frozen pre-change baseline and
// the most recent run.
type benchFile struct {
	Note     string                 `json:"note,omitempty"`
	Baseline map[string]benchResult `json:"baseline"`
	Current  map[string]benchResult `json:"current,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench reads `go test -bench` output and returns the per-benchmark
// measurements. Unit tokens follow their values: "123 ns/op 11.46 GiB/s".
func parseBench(r io.Reader) (map[string]benchResult, error) {
	out := make(map[string]benchResult)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := benchResult{Metrics: make(map[string]float64)}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q on %q", fields[i], m[1])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsOp = v
			case "B/op":
				res.BOp = v
			case "allocs/op":
				res.AllocsOp = v
			default:
				res.Metrics[unit] = v
			}
		}
		if len(res.Metrics) == 0 {
			res.Metrics = nil
		}
		out[m[1]] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	return out, nil
}

func benchjsonMain(args []string) {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	update := fs.String("update", "", "record the run as `file`'s current section (baseline set on first write, frozen after)")
	compare := fs.String("compare", "", "compare the run against `file`'s baseline; non-zero exit on regression")
	tolerance := fs.Float64("tolerance", 0.10, "allowed relative wall-clock regression")
	advisory := fs.Bool("wallclock-advisory", false, "report wall-clock regressions as warnings instead of failures (cross-host runs)")
	fs.Parse(args)
	if *update == "" && *compare == "" {
		fmt.Fprintln(os.Stderr, "benchjson: need -update or -compare")
		os.Exit(2)
	}
	if env := os.Getenv("BENCH_TOLERANCE"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: bad BENCH_TOLERANCE %q\n", env)
			os.Exit(2)
		}
		*tolerance = v
	}
	if env := os.Getenv("BENCH_WALLCLOCK"); env != "" {
		switch env {
		case "advisory":
			*advisory = true
		case "gate":
			*advisory = false
		default:
			fmt.Fprintf(os.Stderr, "benchjson: bad BENCH_WALLCLOCK %q (want advisory or gate)\n", env)
			os.Exit(2)
		}
	}

	got, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *update != "" {
		bf := loadBenchFile(*update)
		if bf.Baseline == nil {
			bf.Baseline = got
		}
		bf.Current = got
		data, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*update, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: recorded %d benchmarks in %s\n", len(got), *update)
	}

	if *compare != "" {
		bf := loadBenchFile(*compare)
		if bf.Baseline == nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s has no baseline\n", *compare)
			os.Exit(1)
		}
		wall, hard := compareRuns(bf.Baseline, got, *tolerance)
		if *advisory {
			for _, f := range wall {
				fmt.Fprintln(os.Stderr, "benchjson: WARN (advisory):", f)
			}
		} else {
			hard = append(wall, hard...)
		}
		if len(hard) > 0 {
			for _, f := range hard {
				fmt.Fprintln(os.Stderr, "benchjson: FAIL:", f)
			}
			os.Exit(1)
		}
		if *advisory {
			fmt.Printf("benchjson: %d benchmarks, virtual metrics identical (wall-clock advisory: %d warnings)\n",
				len(got), len(wall))
		} else {
			fmt.Printf("benchjson: %d benchmarks within %.0f%% of baseline, virtual metrics identical\n",
				len(got), *tolerance*100)
		}
	}
}

func loadBenchFile(path string) *benchFile {
	bf := &benchFile{}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return bf
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := json.Unmarshal(data, bf); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		os.Exit(1)
	}
	return bf
}

// compareRuns checks got against base and returns wall-clock failures
// (host-speed-dependent, may be demoted to warnings) separately from
// hard failures (virtual-metric drift and coverage holes). A baseline
// benchmark absent from the run is a hard failure — a rename, deletion,
// or pattern typo must not shrink the gated set silently; new benchmarks
// (present only in got) still enter the record via -update.
func compareRuns(base, got map[string]benchResult, tolerance float64) (wall, hard []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		g, ok := got[name]
		if !ok {
			hard = append(hard, fmt.Sprintf(
				"%s: in baseline but absent from this run (renamed, deleted, or not matched by the bench pattern)", name))
			continue
		}
		if b.NsOp > 0 && g.NsOp > b.NsOp*(1+tolerance) {
			wall = append(wall, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
				name, g.NsOp, b.NsOp, tolerance*100))
		}
		// Allocation growth is host-independent and gated hard. The slack
		// (1% relative, floor of 2 allocs/op) only absorbs warm-up noise —
		// e.g. a map that grows once across all iterations.
		allocSlack := b.AllocsOp * 0.01
		if allocSlack < 2 {
			allocSlack = 2
		}
		if g.AllocsOp > b.AllocsOp+allocSlack {
			hard = append(hard, fmt.Sprintf(
				"%s: %.0f allocs/op exceeds baseline %.0f allocs/op (allocation regression on the data path)",
				name, g.AllocsOp, b.AllocsOp))
		}
		for _, unit := range sortedKeys(b.Metrics) {
			bv := b.Metrics[unit]
			gv, ok := g.Metrics[unit]
			if !ok {
				hard = append(hard, fmt.Sprintf("%s: virtual metric %q missing", name, unit))
				continue
			}
			if gv != bv {
				hard = append(hard, fmt.Sprintf(
					"%s: virtual metric %q drifted: %v != baseline %v (simulated behavior changed)",
					name, unit, gv, bv))
			}
		}
	}
	return wall, hard
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
