package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func repoRoot(t *testing.T) string {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestSmallScaleSmoke runs every workload untraced and traced at small
// scale through run.sh and checks that each prints exactly the metrics
// BENCHMARK.json names for that mode, with their units.
func TestSmallScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	root := repoRoot(t)
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for trace, want := range []map[string]string{unitsOf(spec.EndToEnd), unitsOf(spec.PerLayer)} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				cmd := exec.Command("bash", "perfbench/run.sh", "--workload", w.Name, "--seed", "26",
					"--seconds", "1", "--trace", strconv.Itoa(trace), "--scale", "small")
				cmd.Dir = root
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
			})
		}
	}
}

func unitsOf(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestWrongReferenceFails feeds the ingest check a reference computed
// without the stream's last batch; the daemon's reads must not match it.
func TestWrongReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	o := options{root: repoRoot(t), workload: "ingest-sharded", seed: 26, scale: "small", posts: 40}
	var err error
	if o.bin, err = buildBinaries(ctx, o.root); err != nil {
		t.Fatal(err)
	}
	s, err := buildStream(newStudy(o, o.seed), o.posts)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	if _, err := ingestPass(ctx, o, newClient(), s, &tl); err != nil || tl.failed != 0 {
		t.Fatalf("true reference: err %v, %d failed", err, tl.failed)
	}

	wrong, err := buildStream(newStudy(o, o.seed), o.posts-1)
	if err != nil {
		t.Fatal(err)
	}
	s.ref = wrong.ref
	tl = tally{}
	if _, err := ingestPass(ctx, o, newClient(), s, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 1 || !strings.Contains(tl.first.Error(), "differs from the single-engine reference") {
		t.Fatalf("wrong reference: %d failed, first %v", tl.failed, tl.first)
	}
}

// TestEndToEndImportsNoInternal keeps the end-to-end path (package main)
// off the repository's internal packages.
func TestEndToEndImportsNoInternal(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			if strings.HasPrefix(strings.Trim(imp.Path.Value, `"`), "failscope/internal/") {
				t.Errorf("%s imports %s", f, imp.Path.Value)
			}
		}
	}
}

// TestCalibrationJobIsFixed: the calibration must do the same work on
// every run, or scaling by it would move the figures.
func TestCalibrationJobIsFixed(t *testing.T) {
	if a, b := calibrationJob(), calibrationJob(); a != b {
		t.Fatalf("calibration checksums differ: %d, %d", a, b)
	}
}
