package failscope

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
)

// detectionReplay generates the small study's field data at the given
// worker count, replays its event stream (closed by an advance to the
// observation end) through a streaming engine, and returns the engine
// snapshot JSON plus, when withDetector is set, the detector and its
// snapshot JSON.
func detectionReplay(t *testing.T, parallelism int, withDetector bool) (string, string, *Detector) {
	t.Helper()
	study := SmallStudy().WithParallelism(parallelism)
	field, err := Generate(study.Generator)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{Observation: study.Generator.Observation}
	var det *Detector
	if withDetector {
		det = NewDetector(DetectorConfig{})
		cfg.Detector = det
	}
	eng, err := NewStreamEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := StreamEventsFromField(field)
	end := study.Generator.Observation.End
	events = append(events, StreamEvent{Type: "advance", Time: &end})
	if err := eng.Apply(events); err != nil {
		t.Fatal(err)
	}
	snapJSON, err := json.MarshalIndent(eng.Snapshot(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	detJSON := ""
	if det != nil {
		dj, err := json.MarshalIndent(det.Snapshot(), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		detJSON = string(dj)
	}
	return string(snapJSON), detJSON, det
}

// TestDetectionByteIdentical enforces the detection layer's cardinal
// rule: attaching a Detector to the streaming engine must not change a
// byte of the engine snapshot, at any worker count — and the detector's
// own snapshot must be byte-identical across worker counts (the detector
// is deterministic and RNG-free).
func TestDetectionByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the small study several times")
	}
	refSnap, _, _ := detectionReplay(t, 1, false)
	refDet := ""
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		snap, detSnap, _ := detectionReplay(t, workers, true)
		if snap != refSnap {
			t.Errorf("engine snapshot changed with detection enabled at %d workers", workers)
		}
		if refDet == "" {
			refDet = detSnap
		} else if detSnap != refDet {
			t.Errorf("detector snapshot differs at %d workers", workers)
		}
	}
	if refDet == "" {
		t.Fatal("no detector snapshot captured")
	}
}

// TestDetectionScoreboardSmall pins the calibrated operating point on the
// canonical small study: the recurrence rule finds the heavy-tail
// machines with precision above the gate floor and positive lead time,
// and the CUSUM stays silent on the stationary usage series.
func TestDetectionScoreboardSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the small study")
	}
	_, _, det := detectionReplay(t, 0, true)
	snap := det.Snapshot()
	if snap.Raised == 0 {
		t.Fatal("detector raised no alerts on the small study")
	}
	if snap.RaisedAnomaly != 0 {
		t.Errorf("CUSUM raised %d anomaly alerts on stationary canonical series", snap.RaisedAnomaly)
	}
	if resolved := snap.Confirmed + snap.Expired; resolved > 0 {
		if p := float64(snap.Confirmed) / float64(resolved); p < 0.7 {
			t.Errorf("precision %.3f below the 0.7 gate floor", p)
		}
	} else {
		t.Error("no alerts resolved against ground truth")
	}
	if snap.Confirmed > 0 && snap.LeadDaysP50 <= 0 {
		t.Errorf("median lead time %.3f days not positive", snap.LeadDaysP50)
	}
	sb := ScoreDetection(snap)
	if err := sb.Err(); err != nil {
		t.Errorf("detection scoreboard gate failed on the canonical small study: %v", err)
	}
	if sb.Failed != 0 {
		t.Errorf("%d detection bands failed", sb.Failed)
	}
	for _, name := range []string{"detect_precision", "detect_median_lead_days", "detect_anomaly_alerts"} {
		if sb.Find(name) == nil {
			t.Errorf("band %q missing from the detection scoreboard", name)
		}
	}
}

// TestStudyFieldReplaysLikeFreshField licenses the detection replay's
// reuse of Result.Field: after Study.Run has collected (classification on,
// as failanalyze -classify runs it) and analyzed the field, the stream it
// flattens to must deep-equal the stream of a freshly generated field —
// machine events' *Machine pointees included — at one worker and at all.
func TestStudyFieldReplaysLikeFreshField(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small study twice")
	}
	for _, p := range []int{1, 0} {
		study := SmallStudy().WithParallelism(p)
		study.Collect.SkipClassification = false
		res, err := study.Run()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Generate(study.Generator)
		if err != nil {
			t.Fatal(err)
		}
		got, want := StreamEventsFromField(res.Field), StreamEventsFromField(fresh)
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: study field flattens to %d events, a fresh one to %d", p, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("parallelism %d: event %d of the study field is %+v, of a fresh field %+v", p, i, got[i], want[i])
			}
		}
	}
}
