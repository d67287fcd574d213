package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"failscope"
)

// batchEvents is the number of events per POST, as failload sends them.
const batchEvents = 1000

// stream is the replayed input of the ingest workloads: a prefix of the
// study's event stream closed by a watermark advance, encoded as JSONL
// bodies, plus the reference reads a single engine gives for it.
type stream struct {
	batches   [][]byte
	events    int   // events in all batches, the final advance included
	wireBytes int64 // sum of the body sizes
	ref       reads
}

// reads are normalized /v1/report and /v1/alerts bodies.
type reads struct {
	report, alerts []byte
}

// buildStream generates the study, flattens it into its event stream and
// keeps the first posts batches: posts*1000-1 events and an advance to
// their latest timestamp, which moves every shard's clock to the same
// watermark. The whole stream is used when it is shorter.
func buildStream(study failscope.Study, posts int) (*stream, error) {
	field, err := failscope.Generate(study.Generator)
	if err != nil {
		return nil, err
	}
	events := failscope.StreamEventsFromField(field)
	if n := posts*batchEvents - 1; len(events) > n {
		events = events[:n]
	}
	var last time.Time
	for i := range events {
		if t := events[i].When(); t.After(last) {
			last = t
		}
	}
	events = append(events, failscope.StreamEvent{Type: "advance", Time: &last})

	s := &stream{events: len(events)}
	var buf bytes.Buffer
	for lo := 0; lo < len(events); lo += batchEvents {
		hi := min(lo+batchEvents, len(events))
		buf.Reset()
		if err := failscope.WriteStreamEvents(&buf, events[lo:hi]); err != nil {
			return nil, err
		}
		body := bytes.Clone(buf.Bytes())
		s.batches = append(s.batches, body)
		s.wireBytes += int64(len(body))
	}
	s.ref, err = referenceReads(study, events)
	return s, err
}

// referenceReads feeds the events, batch by batch, to one engine with a
// detector, configured as failscoped configures its engines, and returns
// its normalized reads.
func referenceReads(study failscope.Study, events []failscope.StreamEvent) (reads, error) {
	gen := study.Generator
	det := failscope.NewDetector(failscope.DetectorConfig{})
	eng, err := failscope.NewStreamEngine(failscope.StreamConfig{
		Observation:      gen.Observation,
		FineWindow:       gen.FineWindow,
		MonitorEpoch:     gen.MonitorEpoch,
		MonitorRetention: gen.MonitorRetention,
		Detector:         det,
	})
	if err != nil {
		return reads{}, err
	}
	for lo := 0; lo < len(events); lo += batchEvents {
		if err := eng.Apply(events[lo:min(lo+batchEvents, len(events))]); err != nil {
			return reads{}, fmt.Errorf("reference apply: %w", err)
		}
	}
	report, err := json.Marshal(eng.Snapshot())
	if err != nil {
		return reads{}, err
	}
	alerts, err := json.Marshal(map[string]any{"seq": eng.Seq(), "detection": det.Snapshot()})
	if err != nil {
		return reads{}, err
	}
	var r reads
	if r.report, err = normalizeReport(report); err != nil {
		return r, err
	}
	r.alerts, err = normalizeAlerts(alerts)
	return r, err
}

// normalizeReport applies the CI shard-smoke normalization of /v1/report:
// the four streaming Summary blocks are tolerance-equal across shard
// merges and MaxServersClass's tie-break may differ, so they are dropped.
// The result is canonical JSON (sorted keys).
func normalizeReport(body []byte) ([]byte, error) {
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	rep, ok := v["report"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("report: no report object")
	}
	for _, k := range []string{"InterFailurePM", "InterFailureVM", "RepairPM", "RepairVM"} {
		if m, ok := rep[k].(map[string]any); ok {
			delete(m, "Summary")
		}
	}
	if m, ok := rep["Spatial"].(map[string]any); ok {
		delete(m, "MaxServersClass")
	}
	return json.Marshal(v)
}

// normalizeAlerts applies the CI shard-smoke normalization of /v1/alerts:
// the detection object without lead-time sketch statistics, active alerts
// without their shard-allocated IDs, and the order-sensitive recent ring
// reduced to its length.
func normalizeAlerts(body []byte) ([]byte, error) {
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("alerts: %w", err)
	}
	det, ok := v["detection"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("alerts: no detection object")
	}
	for _, k := range []string{"leadDaysMean", "leadDaysP50", "leadDaysP95"} {
		delete(det, k)
	}
	if active, ok := det["active"].([]any); ok {
		for _, a := range active {
			if m, ok := a.(map[string]any); ok {
				delete(m, "id")
			}
		}
	}
	recent, _ := det["recent"].([]any)
	det["recentCount"] = len(recent)
	delete(det, "recent")
	return json.Marshal(det)
}
