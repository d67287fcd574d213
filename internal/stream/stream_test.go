package stream

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"failscope/internal/core"
	"failscope/internal/dcsim"
	"failscope/internal/ingest"
	"failscope/internal/model"
)

// small runs the small-study generator + ground-truth collection once per
// test binary.
func smallBatch(t *testing.T) (*dcsim.Output, *ingest.Collection, *core.Report) {
	t.Helper()
	cfg := dcsim.SmallConfig()
	field, err := dcsim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
	opts.SkipClassification = true
	col, err := ingest.Collect(field.Data, field.Tickets, field.Monitor, opts)
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.Analyze(core.Input{Data: col.Data, Attrs: col.Attrs})
	if err != nil {
		t.Fatal(err)
	}
	return field, col, report
}

// closeTo fails unless got is within relative tolerance of want (NaN
// matches NaN).
func closeTo(t *testing.T, name string, got, want, rel float64) {
	t.Helper()
	if math.IsNaN(want) {
		if !math.IsNaN(got) {
			t.Errorf("%s = %g, want NaN", name, got)
		}
		return
	}
	tol := rel * math.Abs(want)
	if tol == 0 {
		tol = rel
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func checkInterFailure(t *testing.T, name string, got, want core.InterFailureResult) {
	t.Helper()
	if got.Kind != want.Kind || got.FailingServers != want.FailingServers ||
		got.SingleFailureServers != want.SingleFailureServers {
		t.Errorf("%s counters = {kind %v failing %d single %d}, want {kind %v failing %d single %d}",
			name, got.Kind, got.FailingServers, got.SingleFailureServers,
			want.Kind, want.FailingServers, want.SingleFailureServers)
	}
	if got.Summary.N != want.Summary.N {
		t.Errorf("%s N = %d, want %d", name, got.Summary.N, want.Summary.N)
	}
	closeTo(t, name+" mean", got.Summary.Mean, want.Summary.Mean, 1e-9)
	closeTo(t, name+" stddev", got.Summary.StdDev, want.Summary.StdDev, 1e-9)
	closeTo(t, name+" min", got.Summary.Min, want.Summary.Min, 0)
	closeTo(t, name+" max", got.Summary.Max, want.Summary.Max, 0)
	closeTo(t, name+" median", got.Summary.Median, want.Summary.Median, 0.05)
	closeTo(t, name+" p25", got.Summary.P25, want.Summary.P25, 0.05)
	closeTo(t, name+" p75", got.Summary.P75, want.Summary.P75, 0.05)
}

func checkRepair(t *testing.T, name string, got, want core.RepairResult) {
	t.Helper()
	if got.Kind != want.Kind {
		t.Errorf("%s kind = %v, want %v", name, got.Kind, want.Kind)
	}
	closeTo(t, name+" reboot share", got.RebootShare, want.RebootShare, 0)
	if got.Summary.N != want.Summary.N {
		t.Errorf("%s N = %d, want %d", name, got.Summary.N, want.Summary.N)
	}
	closeTo(t, name+" mean", got.Summary.Mean, want.Summary.Mean, 1e-9)
	closeTo(t, name+" stddev", got.Summary.StdDev, want.Summary.StdDev, 1e-9)
	closeTo(t, name+" min", got.Summary.Min, want.Summary.Min, 0)
	closeTo(t, name+" max", got.Summary.Max, want.Summary.Max, 0)
	closeTo(t, name+" median", got.Summary.Median, want.Summary.Median, 0.05)
	closeTo(t, name+" p25", got.Summary.P25, want.Summary.P25, 0.05)
	closeTo(t, name+" p75", got.Summary.P75, want.Summary.P75, 0.05)
}

// TestEngineConvergesToBatch is the tentpole acceptance check: replaying
// the collected small-study field data through the streaming engine in
// many batches must land on the batch core.Analyze numbers — exactly for
// every count-based statistic, within tight tolerances for the
// sketch-backed distribution summaries.
func TestEngineConvergesToBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the full small study")
	}
	field, col, batch := smallBatch(t)
	cfg := dcsim.SmallConfig()

	eng, err := NewEngine(Config{
		Observation:      cfg.Observation,
		FineWindow:       cfg.FineWindow,
		MonitorEpoch:     cfg.MonitorEpoch,
		MonitorRetention: cfg.MonitorRetention,
	})
	if err != nil {
		t.Fatal(err)
	}

	events := EventsFromField(col.Data, nil, field.Monitor, nil)
	if len(events) == 0 {
		t.Fatal("no events from field data")
	}
	// Apply in many batches, snapshotting between them: snapshots must be
	// available at any point and never regress.
	const chunks = 16
	var lastTickets int64
	for i := 0; i < chunks; i++ {
		lo, hi := i*len(events)/chunks, (i+1)*len(events)/chunks
		if err := eng.Apply(events[lo:hi]); err != nil {
			t.Fatal(err)
		}
		snap := eng.Snapshot()
		if snap.Tickets < lastTickets {
			t.Fatalf("chunk %d: ticket counter went backwards (%d -> %d)", i, lastTickets, snap.Tickets)
		}
		lastTickets = snap.Tickets
		if snap.Report == nil {
			t.Fatalf("chunk %d: snapshot without report", i)
		}
	}

	snap := eng.Snapshot()
	if snap.DroppedOutOfWindow != 0 {
		t.Errorf("%d collected tickets dropped as out-of-window", snap.DroppedOutOfWindow)
	}
	if snap.OutOfOrder != 0 {
		t.Errorf("%d tickets arrived out of order from a time-sorted replay", snap.OutOfOrder)
	}
	got := snap.Report

	// Exact convergence: every statistic that is a pure function of counts.
	if !reflect.DeepEqual(got.DatasetStats, batch.DatasetStats) {
		t.Errorf("DatasetStats diverged:\n got %+v\nwant %+v", got.DatasetStats, batch.DatasetStats)
	}
	if !reflect.DeepEqual(got.ClassDistribution, batch.ClassDistribution) {
		t.Errorf("ClassDistribution diverged:\n got %+v\nwant %+v", got.ClassDistribution, batch.ClassDistribution)
	}
	if !reflect.DeepEqual(got.WeeklyRates, batch.WeeklyRates) {
		t.Errorf("WeeklyRates diverged:\n got %+v\nwant %+v", got.WeeklyRates, batch.WeeklyRates)
	}
	if !reflect.DeepEqual(got.RecurrencePM, batch.RecurrencePM) {
		t.Errorf("RecurrencePM diverged:\n got %+v\nwant %+v", got.RecurrencePM, batch.RecurrencePM)
	}
	if !reflect.DeepEqual(got.RecurrenceVM, batch.RecurrenceVM) {
		t.Errorf("RecurrenceVM diverged:\n got %+v\nwant %+v", got.RecurrenceVM, batch.RecurrenceVM)
	}
	if !reflect.DeepEqual(got.RandomRecurrent, batch.RandomRecurrent) {
		t.Errorf("RandomRecurrent diverged:\n got %+v\nwant %+v", got.RandomRecurrent, batch.RandomRecurrent)
	}
	if !reflect.DeepEqual(got.SpatialClass, batch.SpatialClass) {
		t.Errorf("SpatialClass diverged:\n got %+v\nwant %+v", got.SpatialClass, batch.SpatialClass)
	}
	// Spatial: everything except the max-incident class (ties between
	// equal-sized incidents resolve by arrival order, which differs between
	// slice order and time order).
	gs, ws := got.Spatial, batch.Spatial
	gs.MaxServersClass, ws.MaxServersClass = 0, 0
	if !reflect.DeepEqual(gs, ws) {
		t.Errorf("Spatial diverged:\n got %+v\nwant %+v", gs, ws)
	}
	if got.Spatial.MaxServers != batch.Spatial.MaxServers {
		t.Errorf("Spatial.MaxServers = %d, want %d", got.Spatial.MaxServers, batch.Spatial.MaxServers)
	}

	// Sketch-backed distributions: exact counts and extremes, 1e-9 moments,
	// 5%% quartiles.
	checkInterFailure(t, "InterFailurePM", got.InterFailurePM, batch.InterFailurePM)
	checkInterFailure(t, "InterFailureVM", got.InterFailureVM, batch.InterFailureVM)
	checkRepair(t, "RepairPM", got.RepairPM, batch.RepairPM)
	checkRepair(t, "RepairVM", got.RepairVM, batch.RepairVM)

	// The final snapshot clears the fidelity gate: the bands the streaming
	// report supports all pass, none fail.
	sb := snap.Fidelity()
	if sb == nil || len(sb.Bands) == 0 {
		t.Fatal("empty fidelity scoreboard from snapshot")
	}
	if err := sb.Err(); err != nil {
		t.Errorf("fidelity gate on final snapshot: %v", err)
	}
	for _, name := range []string{
		"pm_weekly_rate", "pm_vm_rate_ratio", "vm_interfailure_mean",
		"vm_single_failure_share", "vm_reboot_share",
		"recurrent_random_ratio_pm", "recurrent_random_ratio_vm",
		"incident_share_one", "max_incident_servers",
	} {
		b := sb.Find(name)
		if b == nil {
			t.Fatalf("band %s missing", name)
		}
		if b.Verdict != "pass" {
			t.Errorf("band %s verdict = %s (value %g), want pass", name, b.Verdict, b.Value)
		}
	}
}

// TestEngineOnlineClassification trains the two-stage model once and lets
// the engine classify the replayed ticket stream online, scoring against
// ground truth.
func TestEngineOnlineClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the classifier and replays the small study")
	}
	field, col, _ := smallBatch(t)
	cfg := dcsim.SmallConfig()

	opts := ingest.DefaultOptions(cfg.Observation, cfg.FineWindow)
	opts.Clusters = 32
	opts.MaxIter = 20
	clf, err := ingest.TrainOnlineClassifier(col.Data.Tickets, opts)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(Config{
		Observation: cfg.Observation,
		FineWindow:  cfg.FineWindow,
		Classifier:  clf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(EventsFromField(col.Data, nil, field.Monitor, nil)); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	rep := snap.Classifier
	if rep == nil {
		t.Fatal("snapshot without classifier report")
	}
	if rep.TestDocs != int(snap.Tickets) {
		t.Errorf("scored %d tickets, want every in-window ticket (%d)", rep.TestDocs, snap.Tickets)
	}
	if rep.Accuracy < 0.80 {
		t.Errorf("online accuracy = %.3f, want >= 0.80", rep.Accuracy)
	}
	if rep.CrashRecall < 0.75 {
		t.Errorf("online crash recall = %.3f, want >= 0.75", rep.CrashRecall)
	}
	if rep.Confusion == nil || rep.Confusion.Total != int(snap.Tickets) {
		t.Error("confusion matrix missing or incomplete")
	}
}

func TestDecodeJSONLErrorsNameTheLine(t *testing.T) {
	in := `{"type":"advance","time":"2012-07-01T00:00:00Z"}
{not json}
`
	_, err := DecodeJSONL(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 decode error", err)
	}

	_, err = DecodeJSONL(strings.NewReader(`{"value":3}`))
	if err == nil || !strings.Contains(err.Error(), "line 1") || !strings.Contains(err.Error(), "without type") {
		t.Fatalf("err = %v, want line-1 missing-type error", err)
	}
}

func TestEncodeDecodeJSONLRoundTrip(t *testing.T) {
	at := time.Date(2012, 8, 1, 12, 0, 0, 0, time.UTC)
	on := true
	events := []Event{
		{Type: "machine", Machine: &model.Machine{ID: "pm-1", Kind: model.PM, System: model.SysI}},
		{Type: "ticket", Ticket: &model.Ticket{ID: "t1", ServerID: "pm-1", Opened: at, IsCrash: true, Class: model.ClassSoftware, System: model.SysI}},
		{Type: "power", ServerID: "pm-1", Time: &at, On: &on},
	}
	var buf strings.Builder
	if err := EncodeJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", back, events)
	}
}

func TestEngineRejectsBadConfigAndEvents(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("NewEngine accepted an empty observation window")
	}
	win := model.Window{
		Start: time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC),
	}
	if _, err := NewEngine(Config{Observation: win, UsePredictions: true}); err == nil {
		t.Error("NewEngine accepted UsePredictions without a classifier")
	}

	eng, err := NewEngine(Config{Observation: win})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply([]Event{{Type: "warp"}}); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Errorf("Apply(unknown type) err = %v, want type error", err)
	}
	if err := eng.Apply([]Event{{Type: "ticket"}}); err == nil {
		t.Error("Apply accepted a ticket event without a ticket")
	}

	// Out-of-window tickets are dropped and counted, never analyzed.
	before := win.Start.Add(-time.Hour)
	err = eng.Apply([]Event{
		{Type: "machine", Machine: &model.Machine{ID: "pm-1", Kind: model.PM, System: model.SysI}},
		{Type: "ticket", Ticket: &model.Ticket{ID: "t0", ServerID: "pm-1", Opened: before, IsCrash: true, Class: model.ClassSoftware, System: model.SysI}},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap.Tickets != 0 || snap.DroppedOutOfWindow != 1 {
		t.Errorf("tickets = %d dropped = %d, want 0 and 1", snap.Tickets, snap.DroppedOutOfWindow)
	}
	if snap.Machines != 1 {
		t.Errorf("machines = %d, want 1", snap.Machines)
	}
}

// TestEngineTinyFleetExactStats hand-checks the incremental recurrence and
// gap logic on a fleet small enough to verify by eye, including the
// censoring of triggers too close to the window end.
func TestEngineTinyFleetExactStats(t *testing.T) {
	start := time.Date(2012, 7, 1, 0, 0, 0, 0, time.UTC)
	win := model.Window{Start: start, End: start.Add(60 * 24 * time.Hour)}
	eng, err := NewEngine(Config{Observation: win})
	if err != nil {
		t.Fatal(err)
	}
	tick := func(id string, opened time.Time, class model.FailureClass) Event {
		return Event{Type: "ticket", Ticket: &model.Ticket{
			ID: id + opened.String(), ServerID: model.MachineID(id), Opened: opened,
			Closed: opened.Add(2 * time.Hour), IsCrash: true, Class: class, System: model.SysI,
		}}
	}
	d := 24 * time.Hour
	err = eng.Apply([]Event{
		{Type: "machine", Machine: &model.Machine{ID: "pm-1", Kind: model.PM, System: model.SysI}},
		{Type: "machine", Machine: &model.Machine{ID: "pm-2", Kind: model.PM, System: model.SysI}},
		// pm-1 fails on days 0, 3, 40; pm-2 fails once on day 55 (its
		// day-window fits, week/month windows are censored).
		tick("pm-1", start, model.ClassSoftware),
		tick("pm-1", start.Add(3*d), model.ClassSoftware),
		tick("pm-1", start.Add(40*d), model.ClassReboot),
		tick("pm-2", start.Add(55*d), model.ClassHardware),
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	r := snap.Report.RecurrencePM
	// Triggers: day windows uncensored for all 4; week windows for all 4
	// (55+7 > 60 censors pm-2's => 3); month windows: only days 0 and 3.
	if r.Failures != 4 || r.UncensoredForDay != 4 || r.UncensoredForWeek != 3 || r.UncensoredForMonth != 2 {
		t.Fatalf("recurrence counters = %+v", r)
	}
	// Hits: within a day none; within a week the 0->3 gap; within a month
	// the 0->3 gap (3->40 misses every window).
	if r.WithinDay != 0 {
		t.Errorf("WithinDay = %g, want 0", r.WithinDay)
	}
	closeTo(t, "WithinWeek", r.WithinWeek, 1.0/3, 1e-12)
	closeTo(t, "WithinMonth", r.WithinMonth, 0.5, 1e-12)

	inf := snap.Report.InterFailurePM
	if inf.FailingServers != 2 || inf.SingleFailureServers != 1 {
		t.Fatalf("failing = %d single = %d, want 2 and 1", inf.FailingServers, inf.SingleFailureServers)
	}
	if inf.Summary.N != 2 { // gaps 3 and 37 days
		t.Fatalf("gap N = %d, want 2", inf.Summary.N)
	}
	closeTo(t, "gap mean", inf.Summary.Mean, 20, 1e-12)

	rep := snap.Report.RepairPM
	if rep.Summary.N != 4 {
		t.Fatalf("repair N = %d, want 4", rep.Summary.N)
	}
	closeTo(t, "repair mean", rep.Summary.Mean, 2, 1e-12)
	closeTo(t, "reboot share", rep.RebootShare, 0.25, 1e-12)
}
