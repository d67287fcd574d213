// Package stream is the incremental counterpart of the batch pipeline: an
// engine that consumes ordered event batches — tickets, monitoring
// samples, placement changes, incidents — and keeps the paper's §IV
// statistics continuously up to date. Every snapshot is queryable at any
// point and converges to the batch core.Analyze numbers on the same data
// (asserted by the convergence tests): weekly failure rates and class
// mixes are maintained exactly, inter-failure and repair distributions
// through streaming moment accumulators and a mergeable quantile sketch,
// and recurrence/spatial probabilities through incremental counters that
// replicate the batch censoring rules.
package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"failscope/internal/model"
	"failscope/internal/monitordb"
)

// Event is one element of the input stream. Type selects which payload
// fields are meaningful; the JSON form is one object per line (JSONL).
type Event struct {
	// Type is one of "machine", "ticket", "incident", "sample", "power",
	// "placement", "advance".
	Type string `json:"type"`

	// machine: a server joins the inventory (must precede its tickets for
	// kind/system attribution, exactly as a CMDB precedes the ticket queue).
	Machine *model.Machine `json:"machine,omitempty"`

	// ticket: one ticketing-system record.
	Ticket *model.Ticket `json:"ticket,omitempty"`

	// incident: one failure incident (possibly spanning servers).
	Incident *model.Incident `json:"incident,omitempty"`

	// sample / power / placement: monitoring-database records. Time also
	// drives "advance" (an explicit watermark heartbeat with no payload).
	ServerID model.MachineID  `json:"serverID,omitempty"`
	Metric   monitordb.Metric `json:"metric,omitempty"`
	Time     *time.Time       `json:"time,omitempty"`
	Value    float64          `json:"value,omitempty"`
	On       *bool            `json:"on,omitempty"`
	Host     model.MachineID  `json:"host,omitempty"`

	// Ref marks a replica of an event whose primary copy lives on another
	// shard: the receiving engine applies its side effects (machine refs
	// register for incident kind lookups, advance refs move the watermark,
	// placement refs feed the detector's fleet-wide consolidation count)
	// but counts nothing — not the event itself, not the machine, not the
	// detector's inventory — so summing per-shard counters over a sharded
	// fleet equals the single-engine numbers. The shard router sets it when
	// broadcasting machine, advance and placement events; it never crosses
	// the wire.
	Ref bool `json:"ref,omitempty"`
}

// When returns the event's timestamp: ticket open, incident time, sample /
// power / placement / advance time; zero for inventory events.
func (e Event) When() time.Time {
	switch {
	case e.Ticket != nil:
		return e.Ticket.Opened
	case e.Incident != nil:
		return e.Incident.Time
	case e.Time != nil:
		return *e.Time
	}
	return time.Time{}
}

// DecodeJSONL parses a JSONL event batch. Errors name the 1-based line
// number of the offending record — the daemon surfaces them verbatim in
// its 400 responses. Blank lines are skipped.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", line, err)
		}
		if ev.Type == "" {
			return nil, fmt.Errorf("stream: line %d: event without type", line)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: read: %w", err)
	}
	return events, nil
}

// EncodeJSONL writes events one JSON object per line.
func EncodeJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("stream: encode event %d: %w", i, err)
		}
	}
	return bw.Flush()
}
