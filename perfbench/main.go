// Command perfbench is failscope's benchmark. It runs one named workload at
// a given seed against the real failanalyze and failscoped binaries, checks
// their outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload ingest-sharded --seed 26 --seconds 20 --trace 0
//
// With --trace 0 the harness drives the binaries through flags and HTTP
// only and reports the end-to-end metrics. With --trace 1 it runs one
// end-to-end pass, then the same work in-process three times — untraced,
// with a span around every layer call (package traced), untraced again —
// and reports the per-layer metrics. Workloads, metrics and their meaning
// are in README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"failscope"
)

// runBudget caps one invocation; every child process gets a deadline inside
// it, so a hung daemon fails the run instead of stalling it.
const runBudget = 170 * time.Second

type options struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    string
	posts    int    // ingest: POSTs replayed per pass (the stream prefix)
	bin      string // directory holding the built binaries
}

// Fixed workload shape; README.md gives the reasons.
const (
	defaultPosts = 1000 // ≥ 1000 POSTs leave ≥ 10 samples beyond the p99
	readRate     = 20   // ingest-sharded reads per second, ≥ 200 per run
	extraSetups  = 5    // fresh daemon boots before the first pass and after each
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last standard-output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations; a failed correctness check
// counts as a failed operation.
type tally struct {
	attempted, failed int
	first             error
}

// op records one operation's outcome and reports whether it succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if t.first == nil {
		t.first = err
	}
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	return false
}

func main() {
	var o options
	var trace int
	var calibrate bool
	flag.StringVar(&o.root, "root", "..", "repository root holding cmd/ (the wrapper passes it)")
	flag.StringVar(&o.workload, "workload", "", "workload: study, ingest-sharded or ingest-durable")
	flag.Uint64Var(&o.seed, "seed", 26, "workload seed (26 is the calibrated paper seed)")
	flag.IntVar(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.StringVar(&o.scale, "scale", "paper", "study scale: paper or small")
	flag.BoolVar(&calibrate, "calibrate", false, "run the host-speed calibration job and exit (the harness runs itself so)")
	flag.Parse()
	if calibrate {
		runCalibrationJob()
		return
	}
	o.posts = defaultPosts
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 || (o.scale != "paper" && o.scale != "small") {
		return fmt.Errorf("bad arguments: -seconds %d -scale %q", o.seconds, o.scale)
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	o.root = root
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()

	// The binaries are built once per invocation, before anything is timed.
	if o.bin, err = buildBinaries(ctx, root); err != nil {
		return err
	}

	var (
		metrics map[string]float64
		t       tally
	)
	switch o.workload {
	case "study":
		metrics, err = runStudy(ctx, o, &t)
	case "ingest-sharded", "ingest-durable":
		metrics, err = runIngest(ctx, o, &t)
	default:
		return fmt.Errorf("unknown workload %q (want study, ingest-sharded or ingest-durable)", o.workload)
	}
	if err != nil {
		return err
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	units := endToEndUnits
	if o.trace {
		units = perLayerUnits
	}
	for name, unit := range units {
		v, ok := metrics[name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", o.workload, name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed; first: %w", t.failed, t.attempted, t.first)
	}
	return nil
}

// buildBinaries builds failanalyze and failscoped from the repository at
// root into .bench_build/bin and returns that directory.
func buildBinaries(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/failanalyze", "./cmd/failscoped")
	build.Dir, build.Stdout, build.Stderr = root, os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("build: %w", err)
	}
	return bin, nil
}

// endToEndUnits are the --trace 0 metrics; every workload measures each.
var endToEndUnits = map[string]string{
	"setup_s": "s",
	"job_s":   "s",
	"cpu_s":   "s",
}

// newStudy returns the study both binaries configure for -scale and a
// generator seed.
func newStudy(o options, seed uint64) failscope.Study {
	study := failscope.PaperStudy()
	if o.scale == "small" {
		study = failscope.SmallStudy()
	}
	study.Generator.Seed = seed
	return study
}

// usage is what the kernel accounted to one finished child process.
type usage struct {
	cpuS  float64 // user + system CPU seconds
	rssMB float64 // peak resident set size
}

func usageOf(ps *os.ProcessState) usage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{cpuS: tv(ru.Utime) + tv(ru.Stime), rssMB: float64(ru.Maxrss) / 1024} // Maxrss is in KiB
}

// selfCPU is the harness's own user + system CPU so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// median returns the middle value (mean of the two middle values).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates the q-quantile of xs linearly between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// meanSeconds is the mean of ds in seconds.
func meanSeconds(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum.Seconds() / float64(len(ds))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var errDeadline = errors.New("run budget exhausted")
