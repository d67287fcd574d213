package stream

import (
	"fmt"
	"testing"
	"time"

	"failscope/internal/detect"
	"failscope/internal/model"
	"failscope/internal/monitordb"
)

// BenchmarkApplyGroupedLargeStore times one group commit of a single event
// against a store pre-filled to paper size — ~36.8k monitoring series over
// 9,200 machines, with recurrence alerts active on the detector. The
// per-group tail (detector expiry, window advance, footprint gauges) must
// cost O(batch), not O(store): a walk over every series or machine per
// group shows here as a per-op time that grows with the pre-fill.
func BenchmarkApplyGroupedLargeStore(b *testing.B) {
	const machines = 9200
	start := time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)
	det := detect.New(detect.Config{})
	eng, err := NewEngine(Config{
		Observation:      model.Window{Start: start, End: start.AddDate(1, 0, 0)},
		MonitorEpoch:     start,
		MonitorRetention: 2 * 365 * 24 * time.Hour,
		Detector:         det,
	})
	if err != nil {
		b.Fatal(err)
	}

	var fill []Event
	for i := 0; i < machines; i++ {
		id := model.MachineID(fmt.Sprintf("S1-VM-%05d", i))
		fill = append(fill, Event{Type: "machine", Machine: &model.Machine{
			ID: id, Kind: model.VM, System: model.SysI, Created: start.AddDate(-1, 0, 0),
		}})
		for _, m := range monitordb.Metrics() {
			for w := 0; w < 3; w++ {
				at := start.Add(time.Duration(w) * 7 * 24 * time.Hour)
				fill = append(fill, Event{Type: "sample", ServerID: id, Metric: m, Time: &at, Value: float64(i % 100)})
			}
		}
	}
	// A crash burst on every 100th machine keeps ~92 alerts active, so an
	// expiry walk would visit the whole fleet on every group.
	for i := 0; i < machines; i += 100 {
		id := model.MachineID(fmt.Sprintf("S1-VM-%05d", i))
		for c := 0; c < detect.DefaultMinCrashes; c++ {
			opened := start.Add(time.Duration(14*24+c) * time.Hour)
			fill = append(fill, Event{Type: "ticket", Ticket: &model.Ticket{
				ID: fmt.Sprintf("T-%d-%d", i, c), ServerID: id, System: model.SysI,
				Opened: opened, Closed: opened.Add(time.Hour), IsCrash: true, Class: model.ClassHardware,
			}})
		}
	}
	if err := eng.Apply(fill); err != nil {
		b.Fatal(err)
	}
	if fp := eng.Monitor().Footprint(); fp.Series != machines*4 {
		b.Fatalf("pre-fill holds %d series, want %d", fp.Series, machines*4)
	}
	if active := det.Snapshot().ActiveCount; active == 0 {
		b.Fatal("pre-fill raised no alerts")
	}

	base := start.Add(15 * 24 * time.Hour)
	group := make([]Event, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		group[0] = Event{Type: "sample", ServerID: "S1-VM-00000", Metric: monitordb.MetricCPUUtil, Time: &at, Value: 1}
		if _, err := eng.ApplyGroupedTimed(group); err != nil {
			b.Fatal(err)
		}
	}
}
