package stream

import (
	"encoding/json"
	"testing"
	"time"

	"failscope/internal/dcsim"
	"failscope/internal/detect"
)

// detectorReplay replays the collected small-study event stream (closed by
// an advance to the observation end) through an engine configured with the
// given monitor retention and a fresh detector, returning the detector's
// snapshot JSON.
func detectorReplay(t *testing.T, retention time.Duration) string {
	t.Helper()
	field, col, _ := smallBatch(t)
	cfg := dcsim.SmallConfig()

	det := detect.New(detect.Config{})
	ecfg := Config{
		Observation: cfg.Observation,
		FineWindow:  cfg.FineWindow,
		Detector:    det,
	}
	if retention > 0 {
		ecfg.MonitorEpoch = cfg.MonitorEpoch
		ecfg.MonitorRetention = retention
	}
	eng, err := NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	events := EventsFromField(col.Data, nil, field.Monitor, nil)
	end := cfg.Observation.End
	events = append(events, Event{Type: "advance", Time: &end})
	if err := eng.Apply(events); err != nil {
		t.Fatal(err)
	}
	snap, err := json.MarshalIndent(det.Snapshot(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(snap)
}

// TestDetectorUnaffectedByMonitorEviction proves the detector keeps its own
// per-machine state rather than leaning on the columnar monitoring store: a
// detector attached to an engine whose monitor evicts aggressively (short
// retention) must produce a byte-identical snapshot to one attached to an
// engine with monitoring disabled entirely.
func TestDetectorUnaffectedByMonitorEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the small study twice")
	}
	noMonitor := detectorReplay(t, 0)
	shortRetention := detectorReplay(t, 14*24*time.Hour)
	if noMonitor != shortRetention {
		t.Error("detector snapshot changed when the monitoring store evicted aggressively")
	}
	// Sanity: the replay actually exercised the detector.
	var snap detect.Snapshot
	if err := json.Unmarshal([]byte(noMonitor), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Raised == 0 {
		t.Error("detector raised no alerts on the small study")
	}
	if snap.Machines == 0 {
		t.Error("detector observed no machines")
	}
}
