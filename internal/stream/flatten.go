package stream

import (
	"time"

	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/obs"
	"failscope/internal/ticketdb"
)

// EventsFromField flattens a generated (or ingested) field dataset into
// the ordered event stream a live deployment would have produced: the
// machine inventory first (the CMDB predates the ticket queue), then every
// timed record — tickets, incidents, monitoring samples, power events,
// placements — ordered by timestamp with arrival order as the
// deterministic tie-break. This is what -replay feeds the daemon and what
// the convergence tests replay through the engine.
//
// Every source is already time-ordered — the ticket list, the incident
// list, each monitoring series, each power log and each placement
// schedule — so nothing is sorted. Each source is cut into its maximal
// ascending runs (a single run when it is ordered; an unordered source
// just yields more runs) and the runs are k-way merged through a min-heap
// keyed on (timestamp, run index). Runs are numbered in arrival order and
// keep arrival order inside, so the merge emits exactly what a stable sort
// by timestamp would.
//
// The slice has room for one more event, a caller's closing advance. The
// payloads point into the sources' private copies: no allocation per
// event. With o set, gathering the sources runs under a "flatten" span and
// the merge under an "order" span.
func EventsFromField(data *model.Dataset, tickets *ticketdb.Store, monitor *monitordb.DB, o *obs.Observer) []Event {
	sp := o.Start("flatten")
	f := gatherField(data, tickets, monitor)
	sp.AddItems(f.timed)
	sp.End()

	sp = o.Start("order")
	out := f.merge()
	sp.AddItems(len(out))
	sp.End()
	return out
}

// sourceKind says which record slice of a source is set.
type sourceKind uint8

const (
	ticketSource sourceKind = iota
	incidentSource
	sampleSource
	powerSource
	placementSource
)

// source is one input of the flattener; the slice its kind names holds its
// records in arrival order and belongs to the flattener, so events may
// point into it.
type source struct {
	kind      sourceKind
	id        model.MachineID // the series', power log's or placed VM's machine
	metric    monitordb.Metric
	tickets   []model.Ticket
	incidents []model.Incident
	samples   []monitordb.Sample
	power     []monitordb.PowerEvent
	steps     []monitordb.PlacementStep
}

func (s *source) len() int {
	switch s.kind {
	case ticketSource:
		return len(s.tickets)
	case incidentSource:
		return len(s.incidents)
	case sampleSource:
		return len(s.samples)
	case powerSource:
		return len(s.power)
	}
	return len(s.steps)
}

// when is record i's timestamp, as Event.When reports it.
func (s *source) when(i int) time.Time {
	switch s.kind {
	case ticketSource:
		return s.tickets[i].Opened
	case incidentSource:
		return s.incidents[i].Time
	case sampleSource:
		return s.samples[i].Time
	case powerSource:
		return s.power[i].Time
	}
	return s.steps[i].Time
}

// event builds record i's stream event.
func (s *source) event(i int) Event {
	switch s.kind {
	case ticketSource:
		return Event{Type: "ticket", Ticket: &s.tickets[i]}
	case incidentSource:
		return Event{Type: "incident", Incident: &s.incidents[i]}
	case sampleSource:
		sm := &s.samples[i]
		return Event{Type: "sample", ServerID: s.id, Metric: s.metric, Time: &sm.Time, Value: sm.Value}
	case powerSource:
		pe := &s.power[i]
		return Event{Type: "power", ServerID: s.id, Time: &pe.Time, On: &pe.On}
	}
	st := &s.steps[i]
	return Event{Type: "placement", ServerID: s.id, Host: st.Host, Time: &st.Time}
}

// key is a timestamp as (Unix seconds, nanoseconds), which orders exactly
// like time.Time.Before on times without a monotonic clock reading — all
// generated and decoded field data.
type key struct {
	sec  int64
	nsec int32
}

func keyOf(t time.Time) key { return key{t.Unix(), int32(t.Nanosecond())} }

func (a key) less(b key) bool { return a.sec < b.sec || a.sec == b.sec && a.nsec < b.nsec }

// run is the ascending stretch [pos, end) of one source; pos advances as
// the merge consumes it.
type run struct {
	src      int
	pos, end int
}

// head is a heap entry: a run and the key of its next record.
type head struct {
	key
	run int
}

func (a head) less(b head) bool {
	if a.key != b.key {
		return a.key.less(b.key)
	}
	return a.run < b.run
}

// fieldSources is a field cut into runs, ready to merge.
type fieldSources struct {
	machines []*model.Machine
	srcs     []source
	runs     []run
	timed    int // records over all sources
}

// gatherField collects the field's sources in arrival order — tickets,
// incidents, then the monitoring series, power logs and placement
// schedules in monitordb's iteration order — and cuts each into runs.
func gatherField(data *model.Dataset, tickets *ticketdb.Store, monitor *monitordb.DB) *fieldSources {
	f := &fieldSources{}
	if data != nil {
		f.machines = data.Machines
	}
	if tickets != nil {
		f.add(source{kind: ticketSource, tickets: tickets.All()})
	} else if data != nil {
		f.add(source{kind: ticketSource, tickets: append([]model.Ticket(nil), data.Tickets...)})
	}
	if data != nil {
		f.add(source{kind: incidentSource, incidents: append([]model.Incident(nil), data.Incidents...)})
	}
	if monitor != nil {
		monitor.ForEachSeries(func(id model.MachineID, metric monitordb.Metric, samples []monitordb.Sample) {
			f.add(source{kind: sampleSource, id: id, metric: metric, samples: samples})
		})
		monitor.ForEachPower(func(id model.MachineID, events []monitordb.PowerEvent) {
			f.add(source{kind: powerSource, id: id, power: events})
		})
		monitor.ForEachPlacement(func(vm model.MachineID, steps []monitordb.PlacementStep) {
			f.add(source{kind: placementSource, id: vm, steps: steps})
		})
	}
	return f
}

// add appends s and its runs; an empty source adds nothing.
func (f *fieldSources) add(s source) {
	n := s.len()
	if n == 0 {
		return
	}
	idx := len(f.srcs)
	f.srcs = append(f.srcs, s)
	start, prev := 0, keyOf(s.when(0))
	for i := 1; i < n; i++ {
		k := keyOf(s.when(i))
		if k.less(prev) {
			f.runs = append(f.runs, run{src: idx, pos: start, end: i})
			start = i
		}
		prev = k
	}
	f.runs = append(f.runs, run{src: idx, pos: start, end: n})
	f.timed += n
}

// merge emits the inventory, then every record in (timestamp, run index)
// order.
func (f *fieldSources) merge() []Event {
	out := make([]Event, len(f.machines), len(f.machines)+f.timed+1)
	for i, m := range f.machines {
		out[i] = Event{Type: "machine", Machine: m}
	}
	h := make([]head, len(f.runs))
	for i, r := range f.runs {
		h[i] = head{keyOf(f.srcs[r.src].when(r.pos)), i}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		r := &f.runs[h[0].run]
		s := &f.srcs[r.src]
		out = append(out, s.event(r.pos))
		if r.pos++; r.pos < r.end {
			h[0].key = keyOf(s.when(r.pos))
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out
}

// siftDown restores the min-heap property below position i.
func siftDown(h []head, i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
