package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestAllExperimentsQuick smoke-runs every figure/table regenerator at
// reduced scale and sanity-checks the outputs. Each experiment builds its
// own kernels, so the subtests run in parallel.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment sweep; skipped under -short")
	}
	opt := Options{Quick: true, Seed: 1}
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tabs, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(tabs) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tabs {
				if len(tb.Rows) == 0 {
					t.Errorf("table %s has no rows", tb.ID)
				}
				for _, r := range tb.Rows {
					if len(r) != len(tb.Columns) {
						t.Errorf("table %s: row %v has %d cells, want %d", tb.ID, r, len(r), len(tb.Columns))
					}
				}
				if testing.Verbose() {
					// One write per table keeps parallel subtests'
					// tables from interleaving.
					var sb strings.Builder
					tb.Fprint(&sb)
					os.Stderr.WriteString(sb.String())
				}
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig13"); !ok {
		t.Error("fig13 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id found")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := Table{ID: "x", Title: "T", Columns: []string{"a", "bbbb"}, Notes: []string{"n"}}
	tb.AddRow("1", "2")
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: T ==", "a", "bbbb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentDeterminism: the same experiment with the same seed must
// produce byte-identical tables (the DES guarantee, end to end).
func TestExperimentDeterminism(t *testing.T) {
	opt := Options{Quick: true, Seed: 9}
	render := func() string {
		tabs, err := RunFig7a(opt)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range tabs {
			tb.Fprint(&sb)
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("nondeterministic output:\n%s\nvs\n%s", a, b)
	}
}
