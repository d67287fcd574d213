package detect

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/xrand"
)

// advanceWalk is the reference Advance: it walks every machine on every
// call instead of consulting expiryFloor.
func advanceWalk(d *Detector, watermark time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.noteTimeLocked(watermark)
	var due []*machineState
	for _, st := range d.machines {
		if st.active != nil && st.active.Deadline.Before(d.watermark) {
			due = append(due, st)
		}
	}
	sortStates(due)
	for _, st := range due {
		d.clearLocked(st, OutcomeExpired, st.active.Deadline)
	}
}

// TestAdvanceMatchesWalk drives random raise/crash/sample/advance
// sequences into two detectors — one advancing through the expiry floor,
// one through the always-walk oracle — and requires the same cleared
// alerts in the same order, with the same outcomes and ClearedAt values,
// after every step. Midway the floor detector is checkpointed and
// restored into a detector whose own floor lies far in the future, so a
// restore that kept a stale floor would miss expiries.
func TestAdvanceMatchesWalk(t *testing.T) {
	cfg := Config{MinCrashes: 2, BurstWindow: 5 * 24 * time.Hour, Horizon: 4 * 24 * time.Hour, CUSUMThreshold: 6, RingSize: 1 << 16}
	for seed := uint64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		got, want := New(cfg), New(cfg)
		ids := make([]model.MachineID, 24)
		shifted := make([]bool, len(ids))
		for i := range ids {
			ids[i] = model.MachineID(fmt.Sprintf("m%02d", i))
			m := &model.Machine{ID: ids[i], Kind: model.PM, System: 1, Created: t0.AddDate(-1, 0, 0)}
			got.ObserveMachine(m)
			want.ObserveMachine(m)
		}
		both := func(fn func(d *Detector)) { fn(got); fn(want) }
		clock := t0
		checked := 0 // cleared alerts already compared
		const steps = 3000
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(ids))
			switch op := rng.Intn(100); {
			case op < 20:
				// Crash tickets land a little out of order, sometimes
				// several on the same instant. The last quarter of the
				// fleet never crashes, so its level shifts raise anomaly
				// alerts instead of finding a recurrence alert active.
				id := ids[i%(len(ids)*3/4)]
				at := clock.Add(-time.Duration(rng.Intn(96)) * time.Hour)
				both(func(d *Detector) { crash(d, id, at) })
			case op < 75:
				if rng.Intn(20) == 0 {
					shifted[i] = !shifted[i]
				}
				v := 50 + 2*rng.Norm()
				if shifted[i] {
					v += 40
				}
				both(func(d *Detector) { d.ObserveSample(ids[i], monitordb.MetricCPUUtil, clock, v) })
			default:
				wm := clock.Add(-time.Duration(rng.Intn(72)) * time.Hour)
				got.Advance(wm)
				advanceWalk(want, wm)
			}
			clock = clock.Add(time.Duration(rng.Intn(6)) * time.Hour)

			if step == steps/2 {
				var img bytes.Buffer
				if err := got.WriteState(&img); err != nil {
					t.Fatal(err)
				}
				fresh := New(cfg)
				for k := 0; k < cfg.MinCrashes; k++ {
					crash(fresh, "future", clock.AddDate(5, 0, 0))
				}
				if err := fresh.RestoreState(&img); err != nil {
					t.Fatal(err)
				}
				got = fresh
			}
			if len(got.recent) != len(want.recent) || got.activeCount != want.activeCount ||
				!reflect.DeepEqual(got.recent[checked:], want.recent[checked:]) {
				t.Fatalf("seed %d step %d: cleared %d alerts (%d active), oracle %d (%d active)",
					seed, step, len(got.recent), got.activeCount, len(want.recent), want.activeCount)
			}
			checked = len(want.recent)
		}
		gs, ws := got.Snapshot(), want.Snapshot()
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("seed %d: final snapshots differ", seed)
		}
		if ws.Expired == 0 || ws.Confirmed == 0 || ws.RaisedAnomaly == 0 {
			t.Errorf("seed %d: sequence missed a case: expired=%d confirmed=%d anomaly=%d",
				seed, ws.Expired, ws.Confirmed, ws.RaisedAnomaly)
		}
	}
}
