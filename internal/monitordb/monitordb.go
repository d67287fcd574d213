// Package monitordb simulates the server resource-monitoring database of
// §III.A: per-machine usage time series recorded at multiple granularities
// (15 min up to monthly) over a two-year retention window, VM placement
// snapshots (consolidation), and power-state transitions from which on/off
// frequencies are screened at 15-minute granularity.
//
// The store is deliberately shaped like the real systems the paper mined
// (HP OpenView / IBM Tivoli Monitoring): writers push samples at a native
// resolution; readers query averages and rollups over windows, the earliest
// record for a machine (which the paper uses as the VM creation date), and
// the placement table. Series are held columnar (see columnar.go): an
// implicit time grid plus value column instead of per-sample structs, so a
// paper-scale year of fixed-cadence telemetry fits in a quarter of the
// memory and window queries index arithmetically.
package monitordb

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"failscope/internal/model"
	"failscope/internal/obs"
	"failscope/internal/par"
)

// Metric identifies one monitored quantity.
type Metric int

// Monitored metrics. Utilizations are percentages in [0, 100]; network is
// in Kbps (the unit of Fig. 8(d)).
const (
	MetricCPUUtil Metric = iota + 1
	MetricMemUtil
	MetricDiskUtil
	MetricNetKbps
)

// Metrics lists all usage metrics.
func Metrics() []Metric {
	return []Metric{MetricCPUUtil, MetricMemUtil, MetricDiskUtil, MetricNetKbps}
}

func (m Metric) String() string {
	switch m {
	case MetricCPUUtil:
		return "cpu_util"
	case MetricMemUtil:
		return "mem_util"
	case MetricDiskUtil:
		return "disk_util"
	case MetricNetKbps:
		return "net_kbps"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Sample is one time-stamped measurement. It is the store's interchange
// view: the columnar layout materializes Samples on demand rather than
// holding them.
type Sample struct {
	Time  time.Time
	Value float64
}

type seriesKey struct {
	id     model.MachineID
	metric Metric
}

// PowerEvent is a power-state transition of a VM.
type PowerEvent struct {
	Time time.Time
	On   bool
}

// DB is the in-memory monitoring database. It is safe for concurrent use.
type DB struct {
	mu        sync.RWMutex
	retention time.Duration
	series    map[seriesKey]*colSeries
	power     map[model.MachineID][]PowerEvent
	placement map[model.MachineID][]placementRecord
	// hostLoad counts VMs per (host, month); kept in sync with placement
	// so consolidation queries are O(1).
	hostLoad  map[hostMonthKey]int
	firstSeen map[model.MachineID]time.Time
	epoch     time.Time // birth of the database (never moves)
	// The acceptance window. Batch runs never call Advance, so it stays
	// fixed at [epoch, epoch+retention] — the historical truncation the
	// paper's databases exhibit. A live consumer calls Advance(now) as its
	// clock moves, which slides the window to [now-retention, now] and
	// evicts records that fell off the trailing edge.
	windowStart time.Time
	windowEnd   time.Time

	// metrics, when instrumented, counts writes under "monitordb.*". A nil
	// registry (the default) makes every count a no-op; counters are
	// atomic, so workers increment without taking db.mu.
	metrics *obs.Registry
	// log, when instrumented, records drop decisions (samples and events
	// truncated outside the retention window). Nil is a full no-op.
	log *obs.Logger
}

// Instrument attaches a metrics registry: subsequent writes count samples
// (accepted and dropped), power events and placement steps, and rollup
// queries count bucket computations. Passing nil detaches.
func (db *DB) Instrument(reg *obs.Registry) {
	db.mu.Lock()
	db.metrics = reg
	db.mu.Unlock()
}

// SetLogger attaches a structured logger: subsequent writes log every
// retention-window drop decision at debug level. Passing nil detaches.
func (db *DB) SetLogger(l *obs.Logger) {
	db.mu.Lock()
	db.log = l
	db.mu.Unlock()
}

// registry returns the attached registry (possibly nil) without holding
// the caller to a lock ordering: reads of the field take the read lock.
func (db *DB) registry() *obs.Registry {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.metrics
}

type hostMonthKey struct {
	host  model.MachineID
	month time.Time
}

type placementRecord struct {
	month time.Time // first day of month, UTC
	host  model.MachineID
}

// New creates a database whose records begin at epoch and are retained for
// the given duration (the paper's monitoring DBs keep two years).
func New(epoch time.Time, retention time.Duration) *DB {
	return &DB{
		retention:   retention,
		series:      make(map[seriesKey]*colSeries),
		power:       make(map[model.MachineID][]PowerEvent),
		placement:   make(map[model.MachineID][]placementRecord),
		hostLoad:    make(map[hostMonthKey]int),
		firstSeen:   make(map[model.MachineID]time.Time),
		epoch:       epoch,
		windowStart: epoch,
		windowEnd:   epoch.Add(retention),
	}
}

// Epoch returns the earliest observable record time; a machine whose first
// record coincides with the epoch may predate the database (§III.B).
func (db *DB) Epoch() time.Time { return db.epoch }

// outsideWindowLocked reports whether a record at t falls outside the
// current acceptance window.
func (db *DB) outsideWindowLocked(t time.Time) bool {
	return t.Before(db.windowStart) || t.After(db.windowEnd)
}

// seriesLocked returns the series for k, creating it on first write.
func (db *DB) seriesLocked(k seriesKey) *colSeries {
	s := db.series[k]
	if s == nil {
		s = &colSeries{}
		db.series[k] = s
	}
	return s
}

// sampleTime materializes a grid or row timestamp. Stored instants are UTC
// wall-clock nanoseconds; the reconstructed time carries the UTC location
// the generators and codec write.
func sampleTime(nanos int64) time.Time {
	return time.Unix(0, nanos).UTC()
}

// Add appends a usage sample. Samples outside the acceptance window are
// silently dropped, mirroring the real databases' truncation.
func (db *DB) Add(id model.MachineID, metric Metric, s Sample) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.outsideWindowLocked(s.Time) {
		return
	}
	db.seriesLocked(seriesKey{id, metric}).add(s.Time.UnixNano(), s.Value)
	db.noteSeenLocked(id, s.Time)
	db.metrics.Add("monitordb.samples", 1)
}

func (db *DB) noteSeenLocked(id model.MachineID, t time.Time) {
	if first, ok := db.firstSeen[id]; !ok || t.Before(first) {
		db.firstSeen[id] = t
	}
}

// AddSeries appends a batch of usage samples to one series under a single
// lock acquisition — the bulk-write path for parallel generators. Samples
// outside the retention window are dropped exactly as Add drops them.
func (db *DB) AddSeries(id model.MachineID, metric Metric, samples []Sample) {
	if len(samples) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	col := db.seriesLocked(seriesKey{id, metric})
	// Presize for the batch so the add loop lands in one backing array
	// instead of doubling through several. Both reservations are
	// capacity-only: sample routing (grid vs. rows) and detection timing
	// are byte-identical with or without them.
	if col.stride == 0 {
		col.reserveRows(len(samples))
	} else {
		maxT, n := int64(0), 0
		for _, s := range samples {
			if db.outsideWindowLocked(s.Time) {
				continue
			}
			if t := s.Time.UnixNano(); n == 0 || t > maxT {
				maxT = t
			}
			n++
		}
		if n > 0 {
			col.reserveGrid(maxT, n)
		}
	}
	accepted := 0
	for _, s := range samples {
		if db.outsideWindowLocked(s.Time) {
			continue
		}
		col.add(s.Time.UnixNano(), s.Value)
		db.noteSeenLocked(id, s.Time)
		accepted++
	}
	col.trim()
	db.metrics.Add("monitordb.samples", int64(accepted))
	if dropped := len(samples) - accepted; dropped > 0 {
		db.metrics.Add("monitordb.samples_dropped", int64(dropped))
		db.log.Debug("monitoring samples dropped outside retention",
			"machine", string(id), "metric", metric.String(), "dropped", dropped, "accepted", accepted)
	}
}

// AddPowerEvent records a power-state transition.
func (db *DB) AddPowerEvent(id model.MachineID, ev PowerEvent) {
	db.AddPowerEvents(id, []PowerEvent{ev})
}

// AddPowerEvents records a batch of power-state transitions under a single
// lock acquisition.
func (db *DB) AddPowerEvents(id model.MachineID, events []PowerEvent) {
	if len(events) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	accepted := 0
	for _, ev := range events {
		if db.outsideWindowLocked(ev.Time) {
			continue
		}
		db.power[id] = append(db.power[id], ev)
		db.noteSeenLocked(id, ev.Time)
		accepted++
	}
	db.metrics.Add("monitordb.power_events", int64(accepted))
}

// PlacementStep is one month's placement of a VM, for batch writes.
type PlacementStep struct {
	Host model.MachineID
	Time time.Time
}

// SetPlacement records that the VM resided on host during the month
// containing t.
func (db *DB) SetPlacement(vm, host model.MachineID, t time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.setPlacementLocked(vm, host, t)
}

// SetPlacements records a VM's placement schedule under a single lock
// acquisition.
func (db *DB) SetPlacements(vm model.MachineID, steps []PlacementStep) {
	if len(steps) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range steps {
		db.setPlacementLocked(vm, s.Host, s.Time)
	}
	db.metrics.Add("monitordb.placements", int64(len(steps)))
}

func (db *DB) setPlacementLocked(vm, host model.MachineID, t time.Time) {
	m := monthStart(t)
	recs := db.placement[vm]
	for i := range recs {
		if recs[i].month.Equal(m) {
			db.hostLoad[hostMonthKey{recs[i].host, m}]--
			recs[i].host = host
			db.hostLoad[hostMonthKey{host, m}]++
			return
		}
	}
	db.placement[vm] = append(recs, placementRecord{month: m, host: host})
	db.hostLoad[hostMonthKey{host, m}]++
	db.noteSeenLocked(vm, m)
}

func monthStart(t time.Time) time.Time {
	y, m, _ := t.UTC().Date()
	return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)
}

// FirstSeen returns the earliest record for the machine; ok is false when
// the machine never appears in the database.
func (db *DB) FirstSeen(id model.MachineID) (time.Time, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.firstSeen[id]
	return t, ok
}

// Samples returns the samples of one series inside the window, time-sorted.
func (db *DB) Samples(id model.MachineID, metric Metric, w model.Window) []Sample {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.series[seriesKey{id, metric}]
	if s == nil {
		return nil
	}
	var out []Sample
	s.eachIn(w.Start.UnixNano(), w.End.UnixNano(), func(t int64, v float64) {
		out = append(out, Sample{Time: sampleTime(t), Value: v})
	})
	return out
}

// Average returns the mean of a series over the window; ok is false when
// the series has no samples there.
func (db *DB) Average(id model.MachineID, metric Metric, w model.Window) (float64, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.series[seriesKey{id, metric}]
	if s == nil {
		return 0, false
	}
	sum, n := 0.0, 0
	s.eachIn(w.Start.UnixNano(), w.End.UnixNano(), func(_ int64, v float64) {
		sum += v
		n++
	})
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Rollup aggregates a series into buckets of the given width over the
// window, returning the per-bucket averages (empty buckets are skipped).
// This is the hourly/daily/weekly/monthly view of §III.A. Bucket membership
// is index arithmetic on the columnar grid — no per-sample search.
func (db *DB) Rollup(id model.MachineID, metric Metric, w model.Window, bucket time.Duration) []Sample {
	if bucket <= 0 {
		return nil
	}
	db.mu.RLock()
	s := db.series[seriesKey{id, metric}]
	if s == nil {
		db.mu.RUnlock()
		return nil
	}
	type acc struct {
		sum float64
		n   int
	}
	startN := w.Start.UnixNano()
	bucketN := int64(bucket)
	buckets := make(map[int64]*acc)
	s.eachIn(startN, w.End.UnixNano(), func(t int64, v float64) {
		idx := (t - startN) / bucketN
		a := buckets[idx]
		if a == nil {
			a = &acc{}
			buckets[idx] = a
		}
		a.sum += v
		a.n++
	})
	db.mu.RUnlock()
	if len(buckets) == 0 {
		return nil
	}
	idxs := make([]int64, 0, len(buckets))
	for i := range buckets {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out := make([]Sample, 0, len(idxs))
	for _, i := range idxs {
		a := buckets[i]
		out = append(out, Sample{
			Time:  w.Start.Add(time.Duration(i) * bucket),
			Value: a.sum / float64(a.n),
		})
	}
	return out
}

// OnOffCount screens the power log at 15-minute granularity over the
// window and returns the number of off→on transitions detected, mimicking
// the paper's use of 15-min usage data to track VM on/off (§III.B). Two
// transitions inside one 15-minute slot are indistinguishable and count
// once, exactly as they would be in the sampled data.
func (db *DB) OnOffCount(id model.MachineID, w model.Window) int {
	db.mu.RLock()
	events := append([]PowerEvent(nil), db.power[id]...)
	db.mu.RUnlock()
	sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })

	const slot = 15 * time.Minute
	count := 0
	lastState := true // machines start powered on unless the log says otherwise
	lastSlot := int64(-1)
	for _, ev := range events {
		if ev.Time.Before(w.Start) {
			lastState = ev.On
			continue
		}
		if !ev.Time.Before(w.End) {
			break
		}
		slotIdx := int64(ev.Time.Sub(w.Start) / slot)
		if ev.On && !lastState && slotIdx != lastSlot {
			count++
			lastSlot = slotIdx
		}
		lastState = ev.On
	}
	return count
}

// HostOf returns the VM's host during the month containing t.
func (db *DB) HostOf(vm model.MachineID, t time.Time) (model.MachineID, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := monthStart(t)
	for _, rec := range db.placement[vm] {
		if rec.month.Equal(m) {
			return rec.host, true
		}
	}
	return "", false
}

// ConsolidationLevel returns the number of VMs (including vm itself) that
// shared vm's host during the month containing t; ok is false when the VM
// has no placement record for that month.
func (db *DB) ConsolidationLevel(vm model.MachineID, t time.Time) (int, bool) {
	host, ok := db.HostOf(vm, t)
	if !ok {
		return 0, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.hostLoad[hostMonthKey{host, monthStart(t)}], true
}

// AvgConsolidation returns the VM's average monthly consolidation level
// over the window (§VI.A), and false when no placement records exist.
func (db *DB) AvgConsolidation(vm model.MachineID, w model.Window) (float64, bool) {
	db.mu.RLock()
	recs := append([]placementRecord(nil), db.placement[vm]...)
	db.mu.RUnlock()
	sum, n := 0.0, 0
	for _, rec := range recs {
		if rec.month.Before(w.Start) || !rec.month.Before(w.End) {
			continue
		}
		if lvl, ok := db.ConsolidationLevel(vm, rec.month); ok {
			sum += float64(lvl)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// RollupAll computes the bucketed rollup of one metric for every machine in
// the database over the window, sharding machines across
// par.Workers(parallelism) goroutines (readers only take the shared read
// lock). Machines without samples in the window are omitted. This is the
// multi-granularity fleet view of §III.A at scale.
func (db *DB) RollupAll(metric Metric, w model.Window, bucket time.Duration, parallelism int) map[model.MachineID][]Sample {
	ids := db.Machines()
	rollups := make([][]Sample, len(ids))
	par.ForEach(parallelism, len(ids), func(i int) {
		rollups[i] = db.Rollup(ids[i], metric, w, bucket)
	})
	db.registry().Add("monitordb.rollups", int64(len(ids)))
	out := make(map[model.MachineID][]Sample, len(ids))
	for i, id := range ids {
		if len(rollups[i]) > 0 {
			out[id] = rollups[i]
		}
	}
	return out
}

// Window returns the current acceptance window: [start, end] inclusive.
// Fixed at [epoch, epoch+retention] until the first Advance call.
func (db *DB) Window() (start, end time.Time) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.windowStart, db.windowEnd
}

// Advance moves the live edge of the acceptance window to now and evicts
// every record that fell off the trailing edge (now - retention), so a
// long-running database holds at most one retention period of data instead
// of growing without bound. Returns the number of records evicted. Calls
// with now at or before the current window end are no-ops — the window
// only moves forward. First-seen times survive eviction: the paper reads
// them as machine creation dates, which outlive the samples they came from.
func (db *DB) Advance(now time.Time) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !now.After(db.windowEnd) {
		return 0
	}
	db.windowEnd = now
	start := now.Add(-db.retention)
	if start.Before(db.windowStart) {
		return 0 // window grew but nothing can have expired yet
	}
	db.windowStart = start
	startN := start.UnixNano()

	evicted := 0
	for k, s := range db.series {
		evicted += s.evictBefore(startN)
		if s.len() == 0 {
			delete(db.series, k)
		}
	}
	for id, events := range db.power {
		kept := events[:0]
		for _, ev := range events {
			if ev.Time.Before(start) {
				evicted++
			} else {
				kept = append(kept, ev)
			}
		}
		if len(kept) == 0 {
			delete(db.power, id)
		} else {
			db.power[id] = kept
		}
	}
	for vm, recs := range db.placement {
		kept := recs[:0]
		for _, rec := range recs {
			// A placement record covers its whole month; it expires only
			// once the month's last instant predates the window start.
			if rec.month.AddDate(0, 1, 0).Before(start) || rec.month.AddDate(0, 1, 0).Equal(start) {
				db.hostLoad[hostMonthKey{rec.host, rec.month}]--
				if db.hostLoad[hostMonthKey{rec.host, rec.month}] <= 0 {
					delete(db.hostLoad, hostMonthKey{rec.host, rec.month})
				}
				evicted++
			} else {
				kept = append(kept, rec)
			}
		}
		if len(kept) == 0 {
			delete(db.placement, vm)
		} else {
			db.placement[vm] = kept
		}
	}
	if evicted > 0 {
		db.metrics.Add("monitordb.evicted", int64(evicted))
		db.log.Debug("monitoring records evicted past retention",
			"window_start", start.Format(time.RFC3339), "evicted", evicted)
	}
	return evicted
}

// ForEachSeries calls fn for every (machine, metric) series in the same
// deterministic order Encode writes them (machines sorted, then metric,
// samples time-sorted). The slice passed to fn is a copy.
func (db *DB) ForEachSeries(fn func(id model.MachineID, metric Metric, samples []Sample)) {
	db.mu.RLock()
	keys := make([]seriesKey, 0, len(db.series))
	for k := range db.series {
		keys = append(keys, k)
	}
	db.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].id != keys[j].id {
			return keys[i].id < keys[j].id
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		db.mu.RLock()
		var samples []Sample
		if s := db.series[k]; s != nil {
			samples = make([]Sample, 0, s.len())
			s.each(func(t int64, v float64) {
				samples = append(samples, Sample{Time: sampleTime(t), Value: v})
			})
		}
		db.mu.RUnlock()
		if len(samples) == 0 {
			continue
		}
		fn(k.id, k.metric, samples)
	}
}

// ForEachPower calls fn for every machine's power log, machines sorted and
// events time-sorted. The slice passed to fn is a copy.
func (db *DB) ForEachPower(fn func(id model.MachineID, events []PowerEvent)) {
	db.mu.RLock()
	ids := make([]model.MachineID, 0, len(db.power))
	for id := range db.power {
		ids = append(ids, id)
	}
	db.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		db.mu.RLock()
		events := append([]PowerEvent(nil), db.power[id]...)
		db.mu.RUnlock()
		sort.Slice(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
		fn(id, events)
	}
}

// ForEachPlacement calls fn for every VM's placement schedule, VMs sorted
// and months ascending. The slice passed to fn is a copy.
func (db *DB) ForEachPlacement(fn func(vm model.MachineID, steps []PlacementStep)) {
	db.mu.RLock()
	vms := make([]model.MachineID, 0, len(db.placement))
	for id := range db.placement {
		vms = append(vms, id)
	}
	db.mu.RUnlock()
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	for _, id := range vms {
		db.mu.RLock()
		recs := append([]placementRecord(nil), db.placement[id]...)
		db.mu.RUnlock()
		sort.Slice(recs, func(i, j int) bool { return recs[i].month.Before(recs[j].month) })
		steps := make([]PlacementStep, len(recs))
		for i, rec := range recs {
			steps[i] = PlacementStep{Host: rec.host, Time: rec.month}
		}
		fn(id, steps)
	}
}

// Machines returns the IDs of all machines with at least one record.
func (db *DB) Machines() []model.MachineID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]model.MachineID, 0, len(db.firstSeen))
	for id := range db.firstSeen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
