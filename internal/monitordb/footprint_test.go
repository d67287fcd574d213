package monitordb

import (
	"bytes"
	"testing"
	"time"

	"failscope/internal/model"
	"failscope/internal/xrand"
)

// footprintWalk is the reference Footprint: it sums every series' terms
// from scratch, which the DB's running totals must always equal.
func footprintWalk(db *DB) Footprint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var fp Footprint
	for _, s := range db.series {
		fp.Series++
		fp.GridSamples += s.nGrid
		fp.RowSamples += len(s.rowT)
		fp.GridBytes += int64(cap(s.vals))*8 + int64(cap(s.valid))*8
		fp.RowBytes += int64(cap(s.rowT))*8 + int64(cap(s.rowV))*8
	}
	fp.Bytes = fp.GridBytes + fp.RowBytes + int64(fp.Series)*colSeriesOverheadBytes
	fp.LegacyBytes = int64(fp.GridSamples+fp.RowSamples) * legacySampleBytes
	return fp
}

// TestFootprintMatchesWalk drives random mutation sequences — single and
// bulk writes (on-grid, duplicate, off-grid and out-of-window samples),
// window advances that evict partial grids and whole series, and segment
// round trips — and checks the O(1) Footprint against the walk after
// every step.
func TestFootprintMatchesWalk(t *testing.T) {
	const retention = 5 * 24 * time.Hour
	const stride = time.Hour
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		db := New(epoch, retention)
		ids := []model.MachineID{"m0", "m1", "m2", "m3", "m4"}
		var seen struct{ grid, rows, evicted, partial, dropped, roundTrips int }

		// Each series writes on its own hourly cursor, so grids get
		// detected; sampleAt sometimes repeats the last slot (duplicate),
		// leaves the lattice, or lands outside the window.
		cursor := map[seriesKey]time.Time{}
		clock := epoch
		sampleAt := func(k seriesKey) time.Time {
			at := cursor[k]
			if start, _ := db.Window(); at.Before(start) {
				at = start.Truncate(stride).Add(stride)
			}
			switch r := rng.Intn(20); {
			case r < 2:
				return at.Add(-stride) // duplicate of the previous slot
			case r < 4:
				return at.Add(time.Duration(1+rng.Intn(3599)) * time.Second)
			case r == 4:
				return at.Add(-2 * retention)
			case r == 5:
				return at.Add(2 * retention)
			}
			cursor[k] = at.Add(time.Duration(1+rng.Intn(2)) * stride)
			if at.After(clock) {
				clock = at
			}
			return at
		}
		for step := 0; step < 1500; step++ {
			k := seriesKey{ids[rng.Intn(len(ids))], Metric(1 + rng.Intn(4))}
			var what string
			switch op := rng.Intn(100); {
			case op < 55:
				what = "Add"
				db.Add(k.id, k.metric, Sample{Time: sampleAt(k), Value: rng.Float64()})
			case op < 85:
				what = "AddSeries"
				samples := make([]Sample, rng.Intn(40))
				for i := range samples {
					samples[i] = Sample{Time: sampleAt(k), Value: rng.Float64()}
				}
				db.AddSeries(k.id, k.metric, samples)
			case op < 97:
				what = "Advance"
				jump := time.Duration(rng.Intn(72)) * stride
				if rng.Intn(10) == 0 {
					jump += retention // evicts every series still behind
				}
				before := len(db.series)
				if db.Advance(clock.Add(jump)) > 0 {
					seen.evicted++
					if db.Footprint().GridSamples > 0 {
						seen.partial++ // some grid outlived the eviction
					}
				}
				if len(db.series) < before {
					seen.dropped++
				}
			default:
				what = "ReadSegment"
				var buf bytes.Buffer
				if err := db.WriteSegment(&buf); err != nil {
					t.Fatal(err)
				}
				back, err := ReadSegment(&buf)
				if err != nil {
					t.Fatal(err)
				}
				db = back
				seen.roundTrips++
			}
			got, want := db.Footprint(), footprintWalk(db)
			if got != want {
				t.Fatalf("seed %d step %d (%s): Footprint = %+v, walk = %+v", seed, step, what, got, want)
			}
			if got.GridSamples > 0 {
				seen.grid++
			}
			if got.RowSamples > 0 {
				seen.rows++
			}
		}
		if seen.grid == 0 || seen.rows == 0 || seen.evicted == 0 || seen.partial == 0 || seen.dropped == 0 || seen.roundTrips == 0 {
			t.Errorf("seed %d: sequence missed a case: %+v", seed, seen)
		}
	}
}
