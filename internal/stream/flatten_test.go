package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"failscope/internal/dcsim"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/ticketdb"
)

// stableSortFlatten is the reference flattener EventsFromField must match:
// every timed record copied into its own event, stable-sorted by
// timestamp, behind the inventory.
func stableSortFlatten(data *model.Dataset, tickets *ticketdb.Store, monitor *monitordb.DB) []Event {
	var timed []Event
	if tickets != nil {
		for _, t := range tickets.All() {
			tk := t
			timed = append(timed, Event{Type: "ticket", Ticket: &tk})
		}
	} else if data != nil {
		for _, t := range data.Tickets {
			tk := t
			timed = append(timed, Event{Type: "ticket", Ticket: &tk})
		}
	}
	if data != nil {
		for _, inc := range data.Incidents {
			ic := inc
			timed = append(timed, Event{Type: "incident", Incident: &ic})
		}
	}
	if monitor != nil {
		monitor.ForEachSeries(func(id model.MachineID, metric monitordb.Metric, samples []monitordb.Sample) {
			for _, s := range samples {
				at := s.Time
				timed = append(timed, Event{Type: "sample", ServerID: id, Metric: metric, Time: &at, Value: s.Value})
			}
		})
		monitor.ForEachPower(func(id model.MachineID, events []monitordb.PowerEvent) {
			for _, ev := range events {
				at := ev.Time
				on := ev.On
				timed = append(timed, Event{Type: "power", ServerID: id, Time: &at, On: &on})
			}
		})
		monitor.ForEachPlacement(func(vm model.MachineID, steps []monitordb.PlacementStep) {
			for _, st := range steps {
				at := st.Time
				timed = append(timed, Event{Type: "placement", ServerID: vm, Host: st.Host, Time: &at})
			}
		})
	}
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].When().Before(timed[j].When()) })

	var out []Event
	if data != nil {
		for _, m := range data.Machines {
			out = append(out, Event{Type: "machine", Machine: m})
		}
	}
	return append(out, timed...)
}

// requireSameStream fails unless got deep-equals want event by event and
// leaves room for a closing advance.
func requireSameStream(t *testing.T, name string, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, stable sort gives %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: event %d = %+v (at %v), stable sort gives %+v (at %v)",
				name, i, got[i], got[i].When(), want[i], want[i].When())
		}
	}
	if cap(got) <= len(got) {
		t.Errorf("%s: cap %d leaves no room for a closing advance after %d events", name, cap(got), len(got))
	}
}

// randomField builds a small field whose timestamps collide heavily
// within and across sources: every instant is one of a handful of hours,
// some with a sub-second offset, and the dataset's ticket and incident
// lists are left unsorted. Any of data, tickets and monitor may be nil.
func randomField(rng *rand.Rand) (*model.Dataset, *ticketdb.Store, *monitordb.DB) {
	base := time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)
	at := func() time.Time {
		t := base.Add(time.Duration(rng.Intn(6)) * time.Hour)
		if rng.Intn(4) == 0 {
			t = t.Add(time.Duration(rng.Intn(3)) * time.Millisecond)
		}
		return t
	}
	ids := []model.MachineID{"pm-1", "pm-2", "vm-1", "vm-2", "vm-3"}
	id := func() model.MachineID { return ids[rng.Intn(len(ids))] }

	var data *model.Dataset
	if rng.Intn(5) > 0 {
		data = &model.Dataset{}
		for _, m := range ids[:rng.Intn(len(ids)+1)] {
			data.Machines = append(data.Machines, &model.Machine{ID: m})
		}
		for i := rng.Intn(12); i > 0; i-- {
			opened := at()
			switch rng.Intn(10) {
			case 0:
				opened = time.Time{} // never opened: sorts before the epoch
			case 1:
				opened = time.Date(1960, 1, 1, 0, 0, 0, 0, time.UTC)
			}
			data.Tickets = append(data.Tickets, model.Ticket{ID: fmt.Sprint("T", i), ServerID: id(), Opened: opened})
		}
		for i := rng.Intn(6); i > 0; i-- {
			data.Incidents = append(data.Incidents, model.Incident{ID: fmt.Sprint("I", i), Time: at(), Servers: []model.MachineID{id()}})
		}
	}

	var tickets *ticketdb.Store
	if rng.Intn(2) == 0 {
		tickets = ticketdb.NewStore()
		for i := rng.Intn(12); i > 0; i-- {
			tickets.Append(model.Ticket{ServerID: id(), Opened: at(), Description: fmt.Sprint(i)})
		}
	}

	var monitor *monitordb.DB
	if rng.Intn(4) > 0 {
		monitor = monitordb.New(base.Add(-time.Hour), 30*24*time.Hour)
		for i := rng.Intn(10); i > 0; i-- {
			var samples []monitordb.Sample
			for j := rng.Intn(8); j > 0; j-- {
				samples = append(samples, monitordb.Sample{Time: at(), Value: float64(j)})
			}
			if rng.Intn(5) == 0 {
				// Outside the acceptance window: the series stays empty.
				samples = []monitordb.Sample{{Time: base.Add(-48 * time.Hour), Value: 1}}
			}
			monitor.AddSeries(id(), monitordb.Metrics()[rng.Intn(4)], samples)
		}
		for i := rng.Intn(6); i > 0; i-- {
			monitor.AddPowerEvent(id(), monitordb.PowerEvent{Time: at(), On: rng.Intn(2) == 0})
		}
		for i := rng.Intn(4); i > 0; i-- {
			monitor.SetPlacement(id(), id(), at())
		}
	}
	return data, tickets, monitor
}

// TestEventsFromFieldMatchesStableSort checks the k-way merge against the
// stable-sort flattener on randomized fields: unsorted sources, heavy
// equal-timestamp ties within and across sources, empty series and every
// combination of nil inputs.
func TestEventsFromFieldMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data, tickets, monitor := randomField(rng)
		name := fmt.Sprintf("field %d (data %v, tickets %v, monitor %v)", i, data != nil, tickets != nil, monitor != nil)
		requireSameStream(t, name, EventsFromField(data, tickets, monitor, nil), stableSortFlatten(data, tickets, monitor))
	}
	requireSameStream(t, "all nil", EventsFromField(nil, nil, nil, nil), nil)
}

// TestEventsFromFieldMatchesStableSortSmallScale checks the merge against
// the stable sort on the generated small-scale field, through the ticket
// store and through the dataset's own ticket list.
func TestEventsFromFieldMatchesStableSortSmallScale(t *testing.T) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	requireSameStream(t, "store",
		EventsFromField(field.Data, field.Tickets, field.Monitor, nil),
		stableSortFlatten(field.Data, field.Tickets, field.Monitor))
	requireSameStream(t, "dataset tickets",
		EventsFromField(field.Data, nil, field.Monitor, nil),
		stableSortFlatten(field.Data, nil, field.Monitor))
}

// flattened keeps the benchmark's result live.
var flattened []Event

func BenchmarkEventsFromField(b *testing.B) {
	field, err := dcsim.Generate(dcsim.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flattened = EventsFromField(field.Data, field.Tickets, field.Monitor, nil)
	}
}
