package traced

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"failscope"
	"failscope/internal/durable"
	"failscope/internal/obs"
	"failscope/internal/shard"
	"failscope/internal/stream"
)

// Ingest describes one in-process twin of a failscoped ingest pass.
type Ingest struct {
	Study   failscope.Study // window and scale the daemon is configured for
	Shards  int
	Batches [][]byte // encoded JSONL bodies, POSTed in order

	// DataDir, when set, runs the durable sequence: the first half of the
	// batches, a graceful drain, a restart that ingests the rest, a crash
	// and a recovering restart. Requires Shards == 1.
	DataDir string

	// ReadEvery, when positive, runs an open-loop reader beside the
	// producer that alternates Router.Snapshot and Router.Alerts.
	ReadEvery time.Duration
}

// IngestOutcome is what one twin pass produced.
type IngestOutcome struct {
	Wall     time.Duration // boot to the end of the last recovery or ingest
	LoopWall time.Duration // decode + apply loops only: the POST-handling part
	Acked    int64         // events applied
	Seq      int64         // engine sequence at the end (after recovery)
	WALBytes int64         // bytes appended to the write-ahead log
	Recover  []durable.RecoveryInfo

	// DecodeFallbackRatio is the share of decoded lines the zero-copy
	// scanner handed to encoding/json (stream.DecodeStats over the pass).
	DecodeFallbackRatio float64
}

// daemon is one in-process "failscoped" instance.
type daemon struct {
	rt    *shard.Router
	eng   *stream.Engine
	store *durable.Store
	obs   *obs.Observer
}

// boot builds the engines the way cmd/failscoped does for -shards n: an
// observer registry, one detector per shard, gauge labels only when there
// is more than one shard, the default queue length, and in durable mode a
// store recovered before the journal attaches.
func boot(cfg Ingest, rec *Recorder, recoverName string) (*daemon, durable.RecoveryInfo, error) {
	var info durable.RecoveryInfo
	t := rec.now()
	o := obs.NewObserver("failscoped")
	gen := cfg.Study.Generator
	base := stream.Config{
		Observation:      gen.Observation,
		FineWindow:       gen.FineWindow,
		MonitorEpoch:     gen.MonitorEpoch,
		MonitorRetention: gen.MonitorRetention,
		Observer:         o,
	}
	engines := make([]*stream.Engine, cfg.Shards)
	detectors := make([]*failscope.Detector, cfg.Shards)
	for i := range engines {
		ecfg := base
		if cfg.Shards > 1 {
			ecfg.GaugeLabel = fmt.Sprint(i)
		}
		detectors[i] = failscope.NewDetector(failscope.DetectorConfig{})
		ecfg.Detector = detectors[i]
		var err error
		if engines[i], err = stream.NewEngine(ecfg); err != nil {
			return nil, info, err
		}
	}
	rt, err := shard.New(shard.Options{
		Engines: engines, Detectors: detectors, QueueLen: shard.DefaultQueueLen, Registry: o.Metrics(),
	})
	if err != nil {
		return nil, info, err
	}
	d := &daemon{rt: rt, eng: engines[0], obs: o}
	rec.mainSpan("daemon.boot", t)
	if cfg.DataDir == "" {
		return d, info, nil
	}
	t = rec.now()
	if d.store, err = durable.Open(cfg.DataDir, durable.Options{Registry: o.Metrics()}); err != nil {
		return nil, info, err
	}
	rec.mainSpan("durable.open", t)
	t = rec.now()
	if info, err = d.store.Recover(d.eng); err != nil {
		return nil, info, err
	}
	rec.mainSpan(recoverName, t)
	if rec != nil {
		d.eng.SetJournal(&timedJournal{store: d.store, rec: rec})
	} else {
		d.eng.SetJournal(d.store)
	}
	return d, info, nil
}

// timedJournal is the stream.Journal failscoped attaches (*durable.Store),
// with the time of each call added to the recorder.
type timedJournal struct {
	store *durable.Store
	rec   *Recorder
}

func (j *timedJournal) Append(startSeq int64, events []stream.Event) error {
	t := time.Now()
	err := j.store.Append(startSeq, events)
	j.rec.addTotal("durable.append", time.Since(t))
	j.rec.addCount("durable.appends", 1)
	return err
}

func (j *timedJournal) Sync() error {
	t := time.Now()
	err := j.store.Sync()
	j.rec.addTotal("durable.sync", time.Since(t))
	j.rec.addCount("durable.syncs", 1)
	return err
}

// ingest handles batches the way the POST /v1/events handler does: a
// pooled zero-copy decode, then Router.ApplyTimed. The call time beyond the
// engine-apply time ApplyTimed returns is split, queue wait, per-group
// advance and metric flush.
func (d *daemon) ingest(batches [][]byte, rec *Recorder) (int64, error) {
	var rd bytes.Reader
	var acked int64
	for i, body := range batches {
		rd.Reset(body)
		b := stream.GetBatch()
		t := rec.now()
		n, err := b.DecodeJSONLInto(&rd)
		rec.mainSpan("stream.decode", t)
		if err != nil {
			b.Release()
			return acked, fmt.Errorf("batch %d: decode: %w", i, err)
		}
		t = rec.now()
		applied, err := d.rt.ApplyTimed(b.Events)
		if rec != nil {
			call := time.Now()
			rec.span(MainTrack, "stream.engine_apply", t, t.Add(applied))
			rec.span(MainTrack, "shard.outside_apply", t.Add(applied), call)
		}
		b.Release()
		if err != nil {
			return acked, fmt.Errorf("batch %d: apply: %w", i, err)
		}
		acked += int64(n)
	}
	return acked, nil
}

// reader alternates Snapshot and Alerts reads on a fixed schedule until
// stop closes; the untraced twin makes the same reads without timing them.
func reader(rt *shard.Router, every time.Duration, rec *Recorder, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		t := rec.now()
		if i%2 == 0 {
			rt.Snapshot()
			if rec != nil {
				rec.span(ReaderTrack, "shard.snapshot", t, time.Now())
			}
		} else {
			rt.Alerts()
			if rec != nil {
				rec.span(ReaderTrack, "detect.alerts", t, time.Now())
			}
		}
	}
}

// RunIngest runs one twin pass. With rec nil nothing is timed but the
// outcome's wall times.
func RunIngest(cfg Ingest, rec *Recorder) (out IngestOutcome, err error) {
	if cfg.DataDir != "" && cfg.Shards != 1 {
		return out, fmt.Errorf("durable mode needs 1 shard, got %d", cfg.Shards)
	}
	fast0, fallback0 := stream.DecodeStats()
	defer func() {
		fast, fallback := stream.DecodeStats()
		if lines := fast - fast0 + fallback - fallback0; lines > 0 {
			out.DecodeFallbackRatio = float64(fallback-fallback0) / float64(lines)
		}
	}()
	start := time.Now()
	d, _, err := boot(cfg, rec, "durable.recover_fresh")
	if err != nil {
		return out, err
	}
	loop := func(d *daemon, batches [][]byte) error {
		t := time.Now()
		n, err := d.ingest(batches, rec)
		out.LoopWall += time.Since(t)
		out.Acked += n
		return err
	}

	if cfg.DataDir == "" {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		if cfg.ReadEvery > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reader(d.rt, cfg.ReadEvery, rec, stop)
			}()
		}
		err := loop(d, cfg.Batches)
		close(stop)
		wg.Wait()
		if err != nil {
			d.rt.Close()
			return out, err
		}
		out.Seq = d.rt.Seq()
		t := rec.now()
		d.rt.Close()
		rec.mainSpan("shard.close", t)
		out.Wall = time.Since(start)
		return out, nil
	}

	// Durable: first half, then the SIGTERM drain — a final checkpoint and
	// a sealed segment.
	half := len(cfg.Batches) / 2
	if err := loop(d, cfg.Batches[:half]); err != nil {
		return out, err
	}
	t := rec.now()
	if _, err := d.store.Checkpoint(d.eng); err != nil {
		return out, err
	}
	rec.mainSpan("durable.checkpoint", t)
	t = rec.now()
	err = d.store.Close()
	d.rt.Close()
	rec.mainSpan("durable.close", t)
	if err != nil {
		return out, err
	}
	out.WALBytes += int64(d.obs.Metrics().Gauge("durable.wal_bytes").Value())

	// Restart: restore the checkpoint, ingest the rest, then crash — the
	// process dies with its store open, so nothing more reaches disk.
	d, info, err := boot(cfg, rec, "durable.recover_checkpoint")
	if err != nil {
		return out, err
	}
	out.Recover = append(out.Recover, info)
	if err := loop(d, cfg.Batches[half:]); err != nil {
		return out, err
	}
	crashed := d

	// Recovering restart: the same checkpoint plus the WAL tail.
	d, info, err = boot(cfg, rec, "durable.recover_tail")
	if err != nil {
		return out, err
	}
	out.Recover = append(out.Recover, info)
	out.Seq = d.rt.Seq()
	out.Wall = time.Since(start)

	// Release the crashed instance's file handle; the recovered instance
	// is torn down like a daemon that is stopped without a checkpoint.
	if err := crashed.store.Close(); err != nil {
		return out, err
	}
	crashed.rt.Close()
	out.WALBytes += int64(crashed.obs.Metrics().Gauge("durable.wal_bytes").Value())
	err = d.store.Close()
	d.rt.Close()
	return out, err
}

// CheckpointMB is the on-disk size of the newest checkpoint under dir.
func CheckpointMB(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	newest := ""
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "checkpoint-") && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		return 0, fmt.Errorf("no checkpoint in %s", dir)
	}
	var size int64
	err = filepath.WalkDir(filepath.Join(dir, newest), func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		fi, err := e.Info()
		if err == nil {
			size += fi.Size()
		}
		return err
	})
	return float64(size) / (1 << 20), err
}
