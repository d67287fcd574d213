package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"failscope/internal/dcsim"
	"failscope/internal/detect"
	"failscope/internal/ingest"
)

// fullEvents generates the small study's complete event stream (machines,
// tickets, incidents, monitoring, placements, trailing advance) plus a
// factory for identically-configured engines with monitoring and
// detection enabled — the richest configuration persistence must cover.
func fullEvents(t *testing.T) ([]Event, func(t *testing.T) *Engine) {
	t.Helper()
	cfg := dcsim.SmallConfig()
	field, err := dcsim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
	opts.SkipClassification = true
	col, err := ingest.Collect(field.Data, field.Tickets, field.Monitor, opts)
	if err != nil {
		t.Fatal(err)
	}
	events := EventsFromField(col.Data, nil, field.Monitor, nil)
	end := cfg.Observation.End
	events = append(events, Event{Type: "advance", Time: &end})

	mk := func(t *testing.T) *Engine {
		t.Helper()
		eng, err := NewEngine(Config{
			Observation:      cfg.Observation,
			FineWindow:       cfg.FineWindow,
			MonitorEpoch:     cfg.MonitorEpoch,
			MonitorRetention: cfg.MonitorRetention,
			Detector:         detect.New(detect.Config{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	return events, mk
}

// engineFingerprint reduces an engine to the externally observable state
// the crash-recovery invariant protects: the snapshot (report included),
// the detector snapshot and the monitor store's canonical export.
func engineFingerprint(t *testing.T, e *Engine) string {
	t.Helper()
	snap, err := json.Marshal(e.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	det, err := json.Marshal(e.Detector().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var mon bytes.Buffer
	if err := e.Monitor().Encode(&mon); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s\n%s\n%s", snap, det, mon.Bytes())
}

// TestEngineStateRoundTripEquivalence is the headline recovery invariant
// at the engine layer: for any split point k, applying events[:k], writing
// state, restoring it into a fresh engine and applying events[k:] must be
// observationally identical to one uninterrupted run — snapshot, report,
// detector and monitor store alike.
func TestEngineStateRoundTripEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the small study several times")
	}
	events, mk := fullEvents(t)

	ref := mk(t)
	if err := ref.Apply(events); err != nil {
		t.Fatal(err)
	}
	want := engineFingerprint(t, ref)

	n := len(events)
	for _, k := range []int{0, 1, n / 3, n / 2, n - 1, n} {
		a := mk(t)
		if err := a.Apply(events[:k]); err != nil {
			t.Fatalf("split %d: %v", k, err)
		}
		var blob bytes.Buffer
		seq, err := a.WriteState(&blob)
		if err != nil {
			t.Fatalf("split %d: write state: %v", k, err)
		}
		if seq != int64(k) {
			t.Fatalf("split %d: WriteState returned seq %d", k, seq)
		}

		b := mk(t)
		if err := b.RestoreState(bytes.NewReader(blob.Bytes())); err != nil {
			t.Fatalf("split %d: restore: %v", k, err)
		}
		if got := b.Seq(); got != int64(k) {
			t.Fatalf("split %d: restored engine at seq %d", k, got)
		}
		if err := b.Apply(events[k:]); err != nil {
			t.Fatalf("split %d: %v", k, err)
		}
		if got := engineFingerprint(t, b); got != want {
			t.Errorf("split %d: recovered run diverges from uninterrupted run", k)
		}
	}
}

// TestEngineRestoreRefusesMismatch: images must only load into engines
// configured identically — window, monitoring and detection.
func TestEngineRestoreRefusesMismatch(t *testing.T) {
	events, mk := fullEvents(t)
	a := mk(t)
	if err := a.Apply(events[:100]); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if _, err := a.WriteState(&blob); err != nil {
		t.Fatal(err)
	}

	cfg := dcsim.SmallConfig()
	shifted := cfg.Observation
	shifted.End = shifted.End.AddDate(0, 0, 7)
	cases := map[string]Config{
		"window": {Observation: shifted, FineWindow: cfg.FineWindow,
			MonitorEpoch: cfg.MonitorEpoch, MonitorRetention: cfg.MonitorRetention,
			Detector: detect.New(detect.Config{})},
		"no monitor": {Observation: cfg.Observation, FineWindow: cfg.FineWindow,
			Detector: detect.New(detect.Config{})},
		"no detector": {Observation: cfg.Observation, FineWindow: cfg.FineWindow,
			MonitorEpoch: cfg.MonitorEpoch, MonitorRetention: cfg.MonitorRetention},
	}
	for name, c := range cases {
		eng, err := NewEngine(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RestoreState(bytes.NewReader(blob.Bytes())); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
}

// recordingJournal captures appended batches (deep copies — callers may
// recycle the slices) and counts syncs.
type recordingJournal struct {
	mu      sync.Mutex
	records []journalRecord
	syncs   int
}

type journalRecord struct {
	startSeq int64
	events   []Event
}

func (j *recordingJournal) Append(startSeq int64, events []Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = append(j.records, journalRecord{startSeq, append([]Event(nil), events...)})
	return nil
}

func (j *recordingJournal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncs++
	return nil
}

// TestJournalCapturesApplyOrder hammers ApplyGrouped from many goroutines
// and proves the journal's cardinal property: records are contiguous in
// sequence, cover every applied event, and replaying them in append order
// into a fresh engine reproduces the original state exactly.
func TestJournalCapturesApplyOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the small study")
	}
	events, mk := fullEvents(t)
	eng := mk(t)
	j := &recordingJournal{}
	eng.SetJournal(j)

	const workers = 8
	batches := make(chan []Event, 64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				if err := eng.ApplyGrouped(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	const batchSize = 100
	for lo := 0; lo < len(events); lo += batchSize {
		hi := lo + batchSize
		if hi > len(events) {
			hi = len(events)
		}
		batches <- events[lo:hi]
	}
	close(batches)
	wg.Wait()

	j.mu.Lock()
	records, syncs := j.records, j.syncs
	j.mu.Unlock()
	if syncs == 0 {
		t.Fatal("journal never synced")
	}

	// Contiguity: each record starts where the previous one ended.
	next := int64(1)
	total := 0
	for i, r := range records {
		if r.startSeq != next {
			t.Fatalf("record %d starts at seq %d, want %d", i, r.startSeq, next)
		}
		next += int64(len(r.events))
		total += len(r.events)
	}
	if int64(total) != eng.Seq() {
		t.Fatalf("journal holds %d events, engine applied %d", total, eng.Seq())
	}

	// Replaying the journal reproduces the engine bit for bit.
	replayed := mk(t)
	for _, r := range records {
		if err := replayed.Apply(r.events); err != nil {
			t.Fatal(err)
		}
	}
	if engineFingerprint(t, replayed) != engineFingerprint(t, eng) {
		t.Error("journal replay diverges from the journaled engine")
	}
}
