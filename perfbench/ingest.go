package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"failscope/perfbench/traced"
)

// pass is one end-to-end replay of the stream into fresh daemons.
type pass struct {
	wall     time.Duration // first POST to last acknowledgement, restarts excluded
	acked    int64
	postMS   []float64 // per-POST latency
	readMS   []float64 // per-read latency from the read's due time
	lateMS   []float64 // how late the reader sent each read
	cpuS     float64   // daemon CPU, summed over the pass's processes
	rssMB    float64   // the largest daemon peak RSS
	setups   []float64 // spawn-to-ready of boots on a fresh state
	recoverS float64   // durable: spawn-to-ready after the crash
}

// runIngest measures the ingest-sharded or ingest-durable workload.
func runIngest(ctx context.Context, o options, t *tally) (map[string]float64, error) {
	t0 := time.Now()
	s, err := buildStream(newStudy(o, o.seed), o.posts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d events in %d POSTs, %.1f MiB, built with its reference in %.1f s\n",
		o.workload, s.events, len(s.batches), float64(s.wireBytes)/(1<<20), time.Since(t0).Seconds())
	client := newClient()
	durable := o.workload == "ingest-durable"

	if o.trace {
		return traceIngest(ctx, o, client, s, t)
	}

	// Fresh boots on their own before the first pass and after each, so
	// setup_s is a median of several spread over the run.
	var setups []float64
	setup := func() error {
		for i := 0; i < extraSetups; i++ {
			args, dir, err := daemonArgs(o)
			if err != nil {
				return err
			}
			d, err := bootDaemon(ctx, o, client, args...)
			if !t.op(err) {
				return err
			}
			setups = append(setups, d.ready.Seconds())
			// SIGKILL: a SIGTERM this soon after /healthz can arrive before
			// failscoped installs its signal handler, and these boots hold
			// no state to drain.
			_, err = d.stop(syscall.SIGKILL)
			t.op(err)
			os.RemoveAll(dir)
		}
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}

	var rss, posts, readsMS, recovers []float64
	sc, err := newScaled(ctx)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	for runs := 0; runs == 0 || time.Since(begin) < time.Duration(o.seconds)*time.Second; runs++ {
		if ctx.Err() != nil {
			return nil, errDeadline
		}
		sc.start()
		p, err := ingestPass(ctx, o, client, s, t)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setups...)
		if err := sc.add(ctx, p.wall.Seconds(), p.cpuS); err != nil {
			return nil, err
		}
		if err := setup(); err != nil {
			return nil, err
		}
		rss = append(rss, p.rssMB)
		posts = append(posts, p.postMS...)
		readsMS = append(readsMS, p.readMS...)
		if durable {
			recovers = append(recovers, p.recoverS)
		}
	}
	sc.report(os.Stderr, o.workload)
	fmt.Fprintf(os.Stderr, "perfbench: %s: raw ingest %.0f ev/s; POST p50 %.2f ms p99 %.2f ms (n=%d)",
		o.workload, float64(s.events)/median(sc.rawWalls),
		quantile(posts, 0.5), quantile(posts, 0.99), len(posts))
	if durable {
		fmt.Fprintf(os.Stderr, "; recover %.3f s median", median(recovers))
	} else {
		fmt.Fprintf(os.Stderr, "; read p50 %.2f ms p95 %.2f ms (n=%d)",
			quantile(readsMS, 0.5), quantile(readsMS, 0.95), len(readsMS))
	}
	fmt.Fprintf(os.Stderr, "; setup %.4f s median of %d; peak RSS %v MB\n", median(setups), len(setups), rss)
	return map[string]float64{
		"setup_s": median(setups),
		"job_s":   median(sc.walls),
		"cpu_s":   median(sc.cpus),
	}, nil
}

// daemonArgs returns the failscoped flags of the workload; durable mode
// gets a fresh data directory, which the caller removes.
func daemonArgs(o options) ([]string, string, error) {
	if o.workload == "ingest-sharded" {
		return []string{"-shards", "2"}, "", nil
	}
	dir, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "durable-")
	if err != nil {
		return nil, "", err
	}
	return []string{"-shards", "1", "-data-dir", dir, "-checkpoint-interval", "0"}, dir, nil
}

// ingestPass replays the stream once. ingest-sharded: one 2-shard daemon,
// one producer connection and an open-loop reader. ingest-durable: half the
// stream, SIGTERM (the drain checkpoints), a restart that ingests the rest,
// SIGKILL, and a restart that must recover every acknowledged event.
func ingestPass(ctx context.Context, o options, client *http.Client, s *stream, t *tally) (pass, error) {
	var p pass
	args, dir, err := daemonArgs(o)
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	defer client.CloseIdleConnections()
	d, err := bootDaemon(ctx, o, client, args...)
	if !t.op(err) {
		return p, err
	}
	p.setups = append(p.setups, d.ready.Seconds())

	if dir == "" {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		var readErrs []error
		wg.Add(1)
		go func() {
			defer wg.Done()
			readErrs = p.read(client, d.base, time.Second/readRate, stop)
		}()
		p.produce(client, d.base, s.batches, t)
		close(stop)
		wg.Wait()
		for _, err := range readErrs {
			t.op(err)
		}
		t.op(check(client, d.base, s.ref))
		u, err := d.stop(syscall.SIGTERM)
		t.op(err)
		p.cpuS, p.rssMB = u.cpuS, u.rssMB
		return p, nil
	}

	half := len(s.batches) / 2
	p.produce(client, d.base, s.batches[:half], t)
	u, err := d.stop(syscall.SIGTERM)
	t.op(err)
	p.add(u)
	if d, err = bootDaemon(ctx, o, client, args...); !t.op(err) {
		return p, err
	}
	p.produce(client, d.base, s.batches[half:], t)
	u, err = d.stop(syscall.SIGKILL)
	t.op(err)
	p.add(u)
	if d, err = bootDaemon(ctx, o, client, args...); !t.op(err) {
		return p, err
	}
	p.recoverS = d.ready.Seconds()
	seq, err := healthSeq(client, d.base)
	if err == nil && seq != p.acked {
		err = fmt.Errorf("recovered /healthz seq %d, acknowledged %d events", seq, p.acked)
	}
	t.op(err)
	t.op(check(client, d.base, s.ref))
	u, err = d.stop(syscall.SIGTERM)
	t.op(err)
	p.add(u)
	return p, nil
}

func (p *pass) add(u usage) {
	p.cpuS += u.cpuS
	p.rssMB = max(p.rssMB, u.rssMB)
}

// produce POSTs the batches in order on one connection; the next batch
// goes out when the previous one is acknowledged, as an ordered collector
// must send them.
func (p *pass) produce(client *http.Client, base string, batches [][]byte, t *tally) {
	t0 := time.Now()
	for _, body := range batches {
		r0 := time.Now()
		n, err := post(client, base, body)
		p.postMS = append(p.postMS, millis(time.Since(r0)))
		if t.op(err) {
			p.acked += int64(n)
		}
	}
	p.wall += time.Since(t0)
}

// read alternates GET /v1/report and GET /v1/alerts on a fixed schedule
// until stop closes. Each read's latency counts from when it was due, so
// a slow read also delays the ones behind it.
func (p *pass) read(client *http.Client, base string, every time.Duration, stop <-chan struct{}) []error {
	var errs []error
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		select {
		case <-stop:
			return errs
		case <-time.After(time.Until(due)):
		}
		path := "/v1/report"
		if i%2 == 1 {
			path = "/v1/alerts"
		}
		p.lateMS = append(p.lateMS, millis(time.Since(due)))
		code, _, err := get(client, base+path)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET %s: %d", path, code)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		p.readMS = append(p.readMS, millis(time.Since(due)))
	}
}

// check compares the daemon's normalized reads with the reference.
func check(client *http.Client, base string, ref reads) error {
	for _, r := range []struct {
		path string
		norm func([]byte) ([]byte, error)
		want []byte
	}{
		{"/v1/report", normalizeReport, ref.report},
		{"/v1/alerts", normalizeAlerts, ref.alerts},
	} {
		code, body, err := get(client, base+r.path)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("GET %s: %d", r.path, code)
		}
		got, err := r.norm(body)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, r.want) {
			return fmt.Errorf("GET %s differs from the single-engine reference (%d vs %d bytes)", r.path, len(got), len(r.want))
		}
	}
	return nil
}

// traceIngest runs one end-to-end pass, then the in-process twin untraced
// and traced, and reports the per-layer metrics.
func traceIngest(ctx context.Context, o options, client *http.Client, s *stream, t *tally) (map[string]float64, error) {
	cpu0 := selfCPU()
	e2e, err := ingestPass(ctx, o, client, s, t)
	if err != nil {
		return nil, err
	}
	harnessCPU := selfCPU() - cpu0

	cfg := traced.Ingest{Study: newStudy(o, o.seed), Shards: 2, Batches: s.batches}
	if o.workload == "ingest-sharded" {
		cfg.ReadEvery = time.Second / readRate
	} else {
		cfg.Shards = 1
	}
	twin := func(rec *traced.Recorder) (traced.IngestOutcome, string, error) {
		dir := ""
		if o.workload == "ingest-durable" {
			var err error
			if dir, err = os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "twin-"); err != nil {
				return traced.IngestOutcome{}, "", err
			}
		}
		c := cfg
		c.DataDir = dir
		out, err := traced.RunIngest(c, rec)
		if err == nil && (out.Acked != int64(s.events) || out.Seq != out.Acked) {
			err = fmt.Errorf("in-process twin: %d events acknowledged, seq %d, want %d", out.Acked, out.Seq, s.events)
		}
		return out, dir, err
	}
	var plain []traced.IngestOutcome
	untraced := func() error {
		out, dir, err := twin(nil)
		os.RemoveAll(dir)
		plain = append(plain, out)
		return err
	}
	if err := untraced(); !t.op(err) {
		return nil, err
	}
	rec := traced.NewRecorder()
	out, dir, err := twin(rec)
	defer os.RemoveAll(dir)
	if !t.op(err) {
		return nil, err
	}
	if err := untraced(); !t.op(err) {
		return nil, err
	}
	var plainWall, plainLoop []time.Duration
	for _, p := range plain {
		plainWall = append(plainWall, p.Wall)
		plainLoop = append(plainLoop, p.LoopWall)
	}

	m := zeroLayers()
	m["stream.decode_s"] = rec.Seconds("stream.decode")
	m["stream.decode_fallback_ratio"] = out.DecodeFallbackRatio
	m["stream.engine_apply_s"] = rec.Seconds("stream.engine_apply")
	m["shard.outside_apply_s"] = rec.Seconds("shard.outside_apply")
	m["shard.snapshot_ms_p95"] = quantile(rec.Durations(traced.ReaderTrack, "shard.snapshot"), 0.95)
	m["detect.alerts_ms_p95"] = quantile(rec.Durations(traced.ReaderTrack, "detect.alerts"), 0.95)
	m["server.overhead_s"] = e2e.wall.Seconds() - meanSeconds(plainLoop)
	m["http.ingest_events_per_s"] = float64(e2e.acked) / e2e.wall.Seconds()
	m["http.ingest_p50_ms"] = quantile(e2e.postMS, 0.5)
	m["http.ingest_p99_ms"] = quantile(e2e.postMS, 0.99)
	m["http.read_p50_ms"] = quantile(e2e.readMS, 0.5)
	m["http.read_p95_ms"] = quantile(e2e.readMS, 0.95)
	m["harness.read_late_ms"] = quantile(e2e.lateMS, 0.95)
	m["harness.cpu_s"] = harnessCPU
	m["process.peak_rss_mb"] = e2e.rssMB
	if dir != "" {
		m["durable.recover_s"] = e2e.recoverS
		m["durable.append_s"] = rec.Seconds("durable.append")
		m["durable.sync_s"] = rec.Seconds("durable.sync")
		if syncs := rec.Count("durable.syncs"); syncs > 0 {
			m["durable.batches_per_sync"] = rec.Count("durable.appends") / syncs
		}
		m["durable.wal_bytes_per_wire_byte"] = float64(out.WALBytes) / float64(s.wireBytes)
		m["durable.checkpoint_s"] = rec.Seconds("durable.checkpoint")
		if m["durable.checkpoint_mb"], err = traced.CheckpointMB(dir); err != nil {
			return nil, err
		}
		// Both restarts restore the one checkpoint the drain wrote; the
		// second also replays the WAL written after it.
		m["durable.restore_s"] = rec.Seconds("durable.recover_checkpoint")
		m["durable.wal_replay_s"] = rec.Seconds("durable.recover_tail") - m["durable.restore_s"]
		m["durable.replayed_events"] = float64(out.Recover[1].ReplayedEvents)
	}
	m["unattributed_s"] = out.Wall.Seconds() - rec.Attributed()
	m["trace.overhead_ratio"] = overheadRatio(out.Wall, plainWall)
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: wall %.3f s (untraced %.3f s), attributed %.3f s, e2e ingest %.3f s vs in-process loop %.3f s\n",
		o.workload, out.Wall.Seconds(), meanSeconds(plainWall), rec.Attributed(), e2e.wall.Seconds(), meanSeconds(plainLoop))
	return m, writeSpans(o, rec)
}
