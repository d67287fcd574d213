package monitordb_test

import (
	"fmt"
	"testing"
	"time"

	"failscope/internal/durable"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/stream"
)

// TestRecoveredFootprintMatchesWalk crashes a durable engine after a
// checkpoint and a WAL tail, recovers it and finishes the stream. The
// recovered store's running footprint must equal the walk, and its
// capacity-independent terms must equal an uninterrupted run's (byte terms
// differ legitimately: a checkpoint restores slices at their exact length).
func TestRecoveredFootprintMatchesWalk(t *testing.T) {
	start := time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)
	cfg := stream.Config{
		Observation:      model.Window{Start: start, End: start.AddDate(1, 0, 0)},
		MonitorEpoch:     start,
		MonitorRetention: 14 * 24 * time.Hour,
	}
	// 30 machines report hourly for 40 days, a third of them stopping at
	// day 10 so their series age out whole; every 17th sample is off the
	// grid and every 29th repeats its slot.
	var batches [][]stream.Event
	var batch []stream.Event
	for h := 0; h < 40*24; h++ {
		for i := 0; i < 30; i++ {
			if i%3 == 0 && h >= 10*24 {
				continue
			}
			at := start.Add(time.Duration(h) * time.Hour)
			switch n := h*30 + i; {
			case n%17 == 0:
				at = at.Add(7 * time.Minute)
			case n%29 == 0 && h > 0:
				at = at.Add(-time.Hour)
			}
			id := model.MachineID(fmt.Sprintf("S1-VM-%04d", i))
			batch = append(batch, stream.Event{Type: "sample", ServerID: id, Metric: monitordb.Metric(1 + i%4), Time: &at, Value: float64(h % 50)})
		}
		if len(batch) >= 500 {
			batches = append(batches, batch)
			batch = nil
		}
	}
	batches = append(batches, batch)

	newEngine := func() *stream.Engine {
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ref := newEngine()
	for _, b := range batches {
		if err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	ckptAt, crashAt := len(batches)/3, 2*len(batches)/3
	{
		st, err := durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng := newEngine()
		if _, err := st.Recover(eng); err != nil {
			t.Fatal(err)
		}
		eng.SetJournal(st)
		for i, b := range batches[:crashAt] {
			if err := eng.Apply(b); err != nil {
				t.Fatal(err)
			}
			if i == ckptAt {
				if _, err := st.Checkpoint(eng); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Abandoned without Close: the crash.
	}
	st, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := newEngine()
	info, err := st.Recover(eng)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointSeq == 0 || info.ReplayedEvents == 0 {
		t.Fatalf("recovery used neither checkpoint nor WAL: %+v", info)
	}
	if got, want := eng.Monitor().Footprint(), monitordb.FootprintWalk(eng.Monitor()); got != want {
		t.Fatalf("recovered Footprint = %+v, walk = %+v", got, want)
	}
	for _, b := range batches[crashAt:] {
		if err := eng.Apply(b); err != nil {
			t.Fatal(err)
		}
	}

	got, want := eng.Monitor().Footprint(), ref.Monitor().Footprint()
	if walk := monitordb.FootprintWalk(eng.Monitor()); got != walk {
		t.Errorf("recovered run: Footprint = %+v, walk = %+v", got, walk)
	}
	if walk := monitordb.FootprintWalk(ref.Monitor()); want != walk {
		t.Errorf("uninterrupted run: Footprint = %+v, walk = %+v", want, walk)
	}
	if got.Series != want.Series || got.GridSamples != want.GridSamples ||
		got.RowSamples != want.RowSamples || got.LegacyBytes != want.LegacyBytes {
		t.Errorf("recovered footprint %+v, uninterrupted %+v", got, want)
	}
	if want.Series == 0 || want.Series >= 30 || want.RowSamples == 0 {
		t.Errorf("stream missed a case (whole-series eviction, off-grid rows): %+v", want)
	}
}
