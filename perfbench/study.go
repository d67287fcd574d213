package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"failscope/perfbench/traced"
)

// setupSpawns is how many flag-only failanalyze starts the study workload
// times before its first pass and after each pass; setup_s is their median.
const setupSpawns = 7

// studySeeds are the generator seeds in 1..45 at which paper-scale
// `failanalyze -classify -fidelity-gate -detect-gate` passes both gates;
// the other seeds in that range fail at least one fidelity band (most often
// interfailure_best_fit_pm or _vm). 26 is the calibrated seed.
var studySeeds = []uint64{6, 7, 9, 10, 19, 21, 23, 25, 26, 27, 33, 36, 38, 41}

// studySeed maps the workload seed onto studySeeds: a listed seed is used
// as is, any other picks a listed one by remainder.
func studySeed(seed uint64) uint64 {
	for _, s := range studySeeds {
		if s == seed {
			return s
		}
	}
	return studySeeds[seed%uint64(len(studySeeds))]
}

// studyRun is one end-to-end failanalyze run.
type studyRun struct {
	wall   time.Duration
	use    usage
	digest []byte
}

// runFailanalyze runs the study binary from spawn to exit; a gate failure
// is a non-zero exit.
func runFailanalyze(ctx context.Context, o options, seed uint64) (studyRun, error) {
	h := sha256.New()
	p, err := spawn(ctx, h, filepath.Join(o.bin, "failanalyze"), "-scale", o.scale,
		"-seed", strconv.FormatUint(seed, 10), "-classify", "-fidelity-gate", "-detect-gate")
	if err != nil {
		return studyRun{}, err
	}
	u, err := p.wait(false)
	return studyRun{wall: time.Since(p.start), use: u, digest: h.Sum(nil)}, err
}

// runStudy measures `failanalyze -classify -fidelity-gate -detect-gate`
// from spawn to exit, repeated until the run's seconds are spent. Every
// run must exit 0 (both gates pass) with the same stdout digest.
func runStudy(ctx context.Context, o options, t *tally) (map[string]float64, error) {
	seed := studySeed(o.seed)
	if o.trace {
		return traceStudy(ctx, o, seed, t)
	}

	// failanalyze has no server to become ready; its set-up is process
	// start, package initialization and flag parsing, which -h ends at.
	var setups []float64
	setup := func() error {
		for i := 0; i < setupSpawns; i++ {
			p, err := spawn(ctx, io.Discard, filepath.Join(o.bin, "failanalyze"), "-h")
			if err != nil {
				return err
			}
			_, err = p.wait(false)
			if t.op(err) {
				setups = append(setups, time.Since(p.start).Seconds())
			}
		}
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}

	sc, err := newScaled(ctx)
	if err != nil {
		return nil, err
	}
	var digest []byte
	begin := time.Now()
	for runs := 0; runs == 0 || time.Since(begin) < time.Duration(o.seconds)*time.Second; runs++ {
		if ctx.Err() != nil {
			return nil, errDeadline
		}
		sc.start()
		r, err := runFailanalyze(ctx, o, seed)
		if err == nil && digest != nil && !bytes.Equal(r.digest, digest) {
			err = fmt.Errorf("failanalyze stdout digest %x differs from the first run's %x", r.digest, digest)
		}
		if !t.op(err) {
			continue
		}
		digest = r.digest
		if err := sc.add(ctx, r.wall.Seconds(), r.use.cpuS); err != nil {
			return nil, err
		}
		if err := setup(); err != nil {
			return nil, err
		}
	}
	sc.report(os.Stderr, fmt.Sprintf("study (generator seed %d)", seed))
	fmt.Fprintf(os.Stderr, "perfbench: study: setup %.4f s median of %d\n", median(setups), len(setups))
	return map[string]float64{
		"setup_s": median(setups),
		"job_s":   median(sc.walls),
		"cpu_s":   median(sc.cpus),
	}, nil
}

// traceStudy makes one end-to-end run, then runs the study in-process
// untraced, traced and untraced again, and reports the traced run's
// per-layer times.
func traceStudy(ctx context.Context, o options, seed uint64, t *tally) (map[string]float64, error) {
	cpu0 := selfCPU()
	e2e, err := runFailanalyze(ctx, o, seed)
	if !t.op(err) {
		return nil, err
	}
	harnessCPU := selfCPU() - cpu0

	study := newStudy(o, seed)
	var plain []time.Duration
	untraced := func() error {
		out, err := traced.Study(study, nil)
		plain = append(plain, out.Wall)
		return err
	}
	if err := untraced(); !t.op(err) {
		return nil, err
	}
	rec := traced.NewRecorder()
	out, err := traced.Study(study, rec)
	if !t.op(err) {
		return nil, err
	}
	if err := untraced(); !t.op(err) {
		return nil, err
	}
	m := zeroLayers()
	for _, name := range []string{"dcsim.generate", "ingest.collect", "core.analyze", "fidelity.score",
		"stream.flatten", "stream.replay_apply", "detect.score", "report.render"} {
		m[name+"_s"] = rec.Seconds(name)
	}
	m["stream.flatten_alloc_mb"] = out.FlattenAllocMB
	m["process.peak_rss_mb"] = e2e.use.rssMB
	m["harness.cpu_s"] = harnessCPU
	m["unattributed_s"] = out.Wall.Seconds() - rec.Attributed()
	m["trace.overhead_ratio"] = overheadRatio(out.Wall, plain)
	fmt.Fprintf(os.Stderr, "perfbench: study traced: wall %.3f s (untraced %v), attributed %.3f s, end-to-end %.3f s\n",
		out.Wall.Seconds(), plain, rec.Attributed(), e2e.wall.Seconds())
	return m, writeSpans(o, rec)
}

// overheadRatio compares the traced wall time with the mean of the
// untraced runs made before and after it, so warm-up does not bias it.
func overheadRatio(traced time.Duration, untraced []time.Duration) float64 {
	return traced.Seconds()/meanSeconds(untraced) - 1
}

// writeSpans saves the traced run's spans under .bench_build/spans.
func writeSpans(o options, rec *traced.Recorder) error {
	dir := filepath.Join(o.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return rec.WriteFile(path)
}
