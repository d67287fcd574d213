package detect

// Checkpoint persistence for the online detector. The detector's alert
// decisions depend on exact per-machine state — crash-burst windows, EWMA
// levels, CUSUM accumulators, active alert deadlines — so recovery must
// restore every field bit-for-bit: a recovered detector continuing the
// stream has to raise, confirm and expire the same alerts at the same
// instants as one that never crashed (the crash-recovery equivalence
// tests replay both and DeepEqual the snapshots).
//
// The image is gob-encoded through exported mirror structs. The publish
// watermarks (pubRaised/pubClear) are deliberately reset to zero on
// restore: the restarted process has a fresh metrics registry, and a zero
// watermark makes the next Publish re-add the full historical counts so
// the detect_* counters converge to an uninterrupted run's values.

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"failscope/internal/model"
	"failscope/internal/sketch"
)

// detectorStateVersion stamps the gob image; bump on layout changes.
const detectorStateVersion = 1

// seriesImage mirrors seriesState.
type seriesImage struct {
	N         int
	Mean, Dev float64
	Pos, Neg  float64
}

// machineImage mirrors machineState.
type machineImage struct {
	ID      model.MachineID
	Kind    model.MachineKind
	System  model.System
	Cap     model.Capacity
	Created time.Time
	Host    model.MachineID
	Recent  []time.Time
	Crashes int
	Series  [4]seriesImage
	Active  *Alert
}

// detectorImage is the full serialized detector.
type detectorImage struct {
	Version int

	// Raise-rule parameters the image was produced under; restoring into
	// a detector configured differently would silently change every
	// pending deadline, so it is refused instead.
	MinCrashes  int
	BurstWindow time.Duration
	Horizon     time.Duration

	Machines []machineImage // sorted by ID
	HostVMs  map[model.MachineID]int

	FirstEvent time.Time
	Watermark  time.Time

	NextID       int64
	ActiveCount  int
	CrashTickets int64

	RaisedBySource map[string]int64
	Confirmed      int64
	Expired        int64

	LeadDays sketch.MomentsState
	LeadQ    sketch.QuantileState

	Recent []Alert
}

// WriteState serializes the detector. Machine order is sorted, so the
// same detector always produces the same bytes.
func (d *Detector) WriteState(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()

	img := detectorImage{
		Version:        detectorStateVersion,
		MinCrashes:     d.cfg.MinCrashes,
		BurstWindow:    d.cfg.BurstWindow,
		Horizon:        d.cfg.Horizon,
		HostVMs:        d.hostVMs,
		FirstEvent:     d.firstEvent,
		Watermark:      d.watermark,
		NextID:         d.nextID,
		ActiveCount:    d.activeCount,
		CrashTickets:   d.crashTickets,
		RaisedBySource: d.raisedBySource,
		Confirmed:      d.confirmed,
		Expired:        d.expired,
		LeadDays:       d.leadDays.State(),
		LeadQ:          d.leadQ.State(),
		Recent:         d.recent,
	}
	ids := make([]model.MachineID, 0, len(d.machines))
	for id := range d.machines {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	img.Machines = make([]machineImage, 0, len(ids))
	for _, id := range ids {
		st := d.machines[id]
		mi := machineImage{
			ID:      st.id,
			Kind:    st.kind,
			System:  st.system,
			Cap:     st.cap,
			Created: st.created,
			Host:    st.host,
			Recent:  st.recent,
			Crashes: st.crashes,
			Active:  st.active,
		}
		for i, s := range st.series {
			mi.Series[i] = seriesImage{N: s.n, Mean: s.mean, Dev: s.dev, Pos: s.pos, Neg: s.neg}
		}
		img.Machines = append(img.Machines, mi)
	}
	if err := gob.NewEncoder(w).Encode(&img); err != nil {
		return fmt.Errorf("detect: write state: %w", err)
	}
	return nil
}

// RestoreState overwrites the detector's tracking state with a previously
// written image. The receiver keeps its configuration and registry; the
// image's raise-rule parameters must match the configuration or the
// restore is refused.
func (d *Detector) RestoreState(r io.Reader) error {
	var img detectorImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return fmt.Errorf("detect: read state: %w", err)
	}
	if img.Version != detectorStateVersion {
		return fmt.Errorf("detect: state version %d, want %d", img.Version, detectorStateVersion)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if img.MinCrashes != d.cfg.MinCrashes || img.BurstWindow != d.cfg.BurstWindow || img.Horizon != d.cfg.Horizon {
		return fmt.Errorf("detect: state written under minCrashes=%d burst=%s horizon=%s, detector configured with %d/%s/%s",
			img.MinCrashes, img.BurstWindow, img.Horizon,
			d.cfg.MinCrashes, d.cfg.BurstWindow, d.cfg.Horizon)
	}

	d.machines = make(map[model.MachineID]*machineState, len(img.Machines))
	for _, mi := range img.Machines {
		st := &machineState{
			id:      mi.ID,
			kind:    mi.Kind,
			system:  mi.System,
			cap:     mi.Cap,
			created: mi.Created,
			host:    mi.Host,
			recent:  mi.Recent,
			crashes: mi.Crashes,
			active:  mi.Active,
		}
		for i, s := range mi.Series {
			st.series[i] = seriesState{n: s.N, mean: s.Mean, dev: s.Dev, pos: s.Pos, neg: s.Neg}
		}
		d.machines[mi.ID] = st
	}
	d.hostVMs = img.HostVMs
	if d.hostVMs == nil {
		d.hostVMs = make(map[model.MachineID]int)
	}
	d.firstEvent = img.FirstEvent
	d.watermark = img.Watermark
	d.nextID = img.NextID
	d.activeCount = img.ActiveCount
	d.expiryKnown = false
	d.crashTickets = img.CrashTickets
	d.raisedBySource = img.RaisedBySource
	if d.raisedBySource == nil {
		d.raisedBySource = make(map[string]int64)
	}
	d.confirmed = img.Confirmed
	d.expired = img.Expired
	d.leadDays.Restore(img.LeadDays)
	if q := sketch.RestoreQuantile(img.LeadQ); q != nil {
		d.leadQ = q
	} else {
		d.leadQ = sketch.NewQuantile(sketch.DefaultK)
	}
	d.pubRaised, d.pubClear = 0, 0
	d.recent = img.Recent
	return nil
}
