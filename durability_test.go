package failscope

import (
	"encoding/json"
	"testing"

	"failscope/internal/durable"
)

// durableStudyConfig builds the full-featured stream configuration for the
// small study — monitoring grid and online detector attached — so the
// durability cycle exercises every state component the checkpoint spills.
func durableStudyConfig(study Study) (StreamConfig, *Detector) {
	det := NewDetector(DetectorConfig{})
	return StreamConfig{
		Observation:      study.Generator.Observation,
		FineWindow:       study.Generator.FineWindow,
		MonitorEpoch:     study.Generator.MonitorEpoch,
		MonitorRetention: study.Generator.MonitorRetention,
		Detector:         det,
	}, det
}

func snapshotJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDurableRecoveryPreservesStudy is the headline durability invariant
// at study scale: replay the small study into a durable engine, crash it
// mid-stream (checkpoint taken partway, store abandoned without a clean
// shutdown), recover into a fresh engine and finish the replay — the
// final engine snapshot and detector snapshot must be byte-identical to
// an uninterrupted run, and the recovered run must still pass the full
// fidelity scoreboard and the detection gate.
func TestDurableRecoveryPreservesStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the small study three times")
	}
	study := SmallStudy()
	field, err := Generate(study.Generator)
	if err != nil {
		t.Fatal(err)
	}
	events := StreamEventsFromField(field)
	end := study.Generator.Observation.End
	events = append(events, StreamEvent{Type: "advance", Time: &end})

	// Uninterrupted reference run.
	refCfg, refDet := durableStudyConfig(study)
	ref, err := NewStreamEngine(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Apply(events); err != nil {
		t.Fatal(err)
	}
	refSnap := snapshotJSON(t, ref.Snapshot())
	refDetSnap := snapshotJSON(t, refDet.Snapshot())

	// Durable run, crashed mid-stream: a checkpoint lands a third of the
	// way in, the WAL carries the batches after it, and the store is
	// abandoned mid-flight — no final checkpoint, no Close.
	dir := t.TempDir()
	crashAt := len(events) / 2
	{
		cfg, _ := durableStudyConfig(study)
		eng, err := NewStreamEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Recover(eng); err != nil {
			t.Fatal(err)
		}
		eng.SetJournal(st)
		ckptAt := len(events) / 3
		if err := eng.Apply(events[:ckptAt]); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Checkpoint(eng); err != nil {
			t.Fatal(err)
		}
		if err := eng.Apply(events[ckptAt:crashAt]); err != nil {
			t.Fatal(err)
		}
	}

	// Recover into a fresh engine and finish the stream.
	cfg, det := durableStudyConfig(study)
	eng, err := NewStreamEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	info, err := st.Recover(eng)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != int64(crashAt) {
		t.Fatalf("recovered to seq %d, want %d", info.Seq, crashAt)
	}
	if info.CheckpointSeq == 0 || info.ReplayedEvents == 0 {
		t.Fatalf("recovery used neither checkpoint nor WAL: %+v", info)
	}
	eng.SetJournal(st)
	if err := eng.Apply(events[crashAt:]); err != nil {
		t.Fatal(err)
	}

	if got := snapshotJSON(t, eng.Snapshot()); got != refSnap {
		t.Error("engine snapshot after crash-recovery differs from the uninterrupted run")
	}
	if got := snapshotJSON(t, det.Snapshot()); got != refDetSnap {
		t.Error("detector snapshot after crash-recovery differs from the uninterrupted run")
	}
	// The footprint gauges hold across recovery on every capacity-
	// independent term; the byte terms differ because a checkpoint
	// restores each column at its exact length.
	if got, want := eng.Monitor().Footprint(), ref.Monitor().Footprint(); got.Series != want.Series ||
		got.GridSamples != want.GridSamples || got.RowSamples != want.RowSamples || got.LegacyBytes != want.LegacyBytes {
		t.Errorf("footprint after crash-recovery %+v, uninterrupted %+v", got, want)
	}

	// The recovered study still passes every fidelity band and the
	// detection gate — durability is invisible to the observed science.
	sb := eng.Snapshot().Fidelity()
	if err := sb.Err(); err != nil {
		t.Errorf("fidelity gate failed after recovery: %v", err)
	}
	if sb.Failed != 0 {
		t.Errorf("%d fidelity bands failed after recovery", sb.Failed)
	}
	dsb := ScoreDetection(det.Snapshot())
	if err := dsb.Err(); err != nil {
		t.Errorf("detection gate failed after recovery: %v", err)
	}
}
