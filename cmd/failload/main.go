// Command failload drives sustained JSONL event traffic against a live
// failscoped daemon and reports ingest throughput and latency — the
// harness that turns shard-scaling claims into BENCH-trajectory numbers.
//
//	failload -addr localhost:8080 -connections 8 -batch 1000 -duration 30s
//	failload -addr localhost:8080 -source study -scale small
//
// Two traffic sources:
//
//   - synth (default): each connection drives its own disjoint synthetic
//     machine fleet — inventory first, then a deterministic ticket/sample
//     mix whose timestamps sweep the study window. Batches are pre-encoded
//     before the clock starts, so the measurement loop is pure wire cost.
//     When -duration outlasts one pass the batches wrap around (duplicate
//     tickets keep the engine busy; the resulting statistics are load, not
//     science).
//   - study: generate the selected dcsim study once and replay its exact
//     event stream on one connection, finishing with a watermark advance
//     broadcast so every shard's clock converges. Feeding the same study
//     stream to a 1-shard and an N-shard daemon must produce equivalent
//     /v1/report and /v1/alerts reads — the CI shard-smoke gate.
//
// The summary prints events/sec and p50/p95/p99 request latency; with
// -trace-out the run emits a RunReport-compatible JSON whose meta carries
// the daemon's shard count (read from /healthz), so benchdiff can refuse
// wall-time comparisons across differing shard counts.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"failscope"
	"failscope/internal/clikit"
	"failscope/internal/model"
	"failscope/internal/monitordb"
	"failscope/internal/obs"
	"failscope/internal/sketch"
	"failscope/internal/stream"
	"failscope/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failload:", err)
		os.Exit(1)
	}
}

// requestBucketsMS bound the failload.request_ms histogram.
var requestBucketsMS = []float64{0.5, 1, 5, 10, 50, 100, 500, 1000, 5000}

func run() error {
	var (
		addr        = flag.String("addr", "localhost:8080", "failscoped address to drive")
		connections = flag.Int("connections", 4, "concurrent posting connections (synth source)")
		batch       = flag.Int("batch", 1000, "events per POST /v1/events batch")
		duration    = flag.Duration("duration", 10*time.Second, "how long to drive traffic (synth; 0 = one pass over the pregenerated batches)")
		source      = flag.String("source", "synth", "traffic source: synth (generated load) or study (one exact dcsim replay, single connection)")
		scale       = flag.String("scale", "small", "study scale: paper, small or fleet (sets the event-time window; must match the daemon's -scale)")
		seed        = flag.Uint64("seed", 0, "generator seed (0 keeps the calibrated default)")
		machines    = flag.Int("machines", 200, "synthetic machines per connection")
		batches     = flag.Int("batches", 50, "pre-encoded batches per connection (synth; the drive loop wraps around them)")
		ticketShare = flag.Float64("ticket-share", 0.25, "fraction of synthetic timed events that are tickets (the rest are monitoring samples)")
	)
	ofl := clikit.AddFlags(flag.CommandLine)
	flag.Parse()

	var study failscope.Study
	switch *scale {
	case "paper":
		study = failscope.PaperStudy()
	case "small":
		study = failscope.SmallStudy()
	case "fleet":
		study = failscope.FleetStudy()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *seed != 0 {
		study.Generator.Seed = *seed
	}
	if *connections < 1 {
		return fmt.Errorf("-connections must be >= 1")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be >= 1")
	}

	o, stopDebug, err := ofl.Observer("failload")
	if err != nil {
		return err
	}
	defer stopDebug()
	if o == nil {
		o = obs.NewObserver("failload")
	}

	base := "http://" + *addr
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *connections + 2,
		MaxIdleConnsPerHost: *connections + 2,
	}}
	shards, err := daemonShards(client, base)
	if err != nil {
		return fmt.Errorf("daemon not reachable at %s: %w", base, err)
	}
	o.SetMeta(study.Generator.Seed, *connections,
		fmt.Sprintf("source=%s scale=%s batch=%d duration=%s shards=%d",
			*source, *scale, *batch, *duration, shards))

	// Pre-encode every batch before the clock starts: the measured loop is
	// POST + response only.
	genSpan := o.Start("generate")
	var perConn [][][]byte
	switch *source {
	case "synth":
		perConn = make([][][]byte, *connections)
		for c := range perConn {
			perConn[c], err = synthBatches(c, *machines, *batch, *batches, *ticketShare,
				study.Generator.Observation, study.Generator.Seed)
			if err != nil {
				genSpan.End()
				return err
			}
		}
	case "study":
		study.Generator.Observer = o.Under(genSpan)
		field, err := failscope.Generate(study.Generator)
		if err != nil {
			genSpan.End()
			return err
		}
		events := stream.EventsFromField(field.Data, field.Tickets, field.Monitor, nil)
		// A final advance at the stream's high-water mark: broadcast to
		// every shard, it converges the per-shard watermarks (and detector
		// expiry scans) so sharded and unsharded reads align.
		var max time.Time
		for i := range events {
			if t := events[i].When(); t.After(max) {
				max = t
			}
		}
		if !max.IsZero() {
			at := max
			events = append(events, stream.Event{Type: "advance", Time: &at})
		}
		encoded, err := encodeBatches(events, *batch)
		if err != nil {
			genSpan.End()
			return err
		}
		perConn = [][][]byte{encoded}
		if *connections != 1 {
			fmt.Fprintf(os.Stderr, "failload: -source study replays in order on 1 connection (ignoring -connections %d)\n", *connections)
		}
	default:
		genSpan.End()
		return fmt.Errorf("unknown source %q (want synth or study)", *source)
	}
	totalBytes := 0
	for _, bs := range perConn {
		for _, b := range bs {
			totalBytes += len(b)
		}
	}
	genSpan.End()

	type connResult struct {
		events, batches, rejected int64
		lat                       *sketch.Quantile
		err                       error
	}
	onePass := *source == "study" || *duration <= 0
	deadline := time.Now().Add(*duration)
	driveSpan := o.Start("drive")
	t0 := time.Now()
	results := make([]connResult, len(perConn))
	var wg sync.WaitGroup
	for c := range perConn {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.lat = sketch.NewQuantile(sketch.DefaultK)
			reqHist := o.Metrics().Histogram("failload.request_ms", requestBucketsMS...)
			for pass := 0; ; pass++ {
				for _, body := range perConn[c] {
					if !onePass && time.Now().After(deadline) {
						return
					}
					r0 := time.Now()
					ok, n, err := postBatch(client, base, body)
					ms := float64(time.Since(r0)) / float64(time.Millisecond)
					res.lat.Add(ms)
					reqHist.Observe(ms)
					res.batches++
					if err != nil {
						res.err = err
						return
					}
					if !ok {
						res.rejected++
						continue
					}
					res.events += int64(n)
				}
				if onePass {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	driveSpan.End()

	var events, nbatches, rejected int64
	lat := sketch.NewQuantile(sketch.DefaultK)
	for _, res := range results {
		if res.err != nil {
			return res.err
		}
		events += res.events
		nbatches += res.batches
		rejected += res.rejected
		lat.Merge(res.lat)
	}
	evPerSec := float64(events) / wall.Seconds()

	m := o.Metrics()
	m.Add("failload.events", events)
	m.Add("failload.batches", nbatches)
	m.Add("failload.rejected_batches", rejected)
	m.Set("failload.events_per_sec", evPerSec)
	m.Set("failload.daemon_shards", float64(shards))

	fmt.Printf("failload: %s source=%s shards=%d connections=%d batch=%d\n",
		base, *source, shards, len(perConn), *batch)
	fmt.Printf("  events   %d in %v (%.0f events/sec), %d batches (%d rejected), %.1f MiB wire\n",
		events, wall.Round(time.Millisecond), evPerSec, nbatches, rejected,
		float64(totalBytes)/(1<<20))
	fmt.Printf("  latency  p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
		lat.Query(0.5), lat.Query(0.95), lat.Query(0.99))

	return ofl.Emit("failload", o, func(rep *obs.RunReport) {
		rep.Meta.Shards = shards
		rep.Metrics["failload.request_ms_p50"] = lat.Query(0.5)
		rep.Metrics["failload.request_ms_p95"] = lat.Query(0.95)
		rep.Metrics["failload.request_ms_p99"] = lat.Query(0.99)
	})
}

// daemonShards reads the daemon's shard count from /healthz (1 when the
// field is absent — an unsharded daemon).
func daemonShards(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Shards int `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	if body.Shards < 1 {
		return 1, nil
	}
	return body.Shards, nil
}

// postBatch posts one pre-encoded JSONL batch. A 400 is a rejected batch
// (counted, not fatal); other non-2xx statuses and transport errors abort
// the connection.
func postBatch(client *http.Client, base string, body []byte) (ok bool, applied int, err error) {
	resp, err := client.Post(base+"/v1/events", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusBadRequest {
		io.Copy(io.Discard, resp.Body)
		return false, 0, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, 0, fmt.Errorf("POST /v1/events: status %s", resp.Status)
	}
	var out struct {
		Applied int `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return false, 0, err
	}
	return true, out.Applied, nil
}

// encodeBatches splits events into JSONL bodies of batch events each.
func encodeBatches(events []stream.Event, batch int) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(events); lo += batch {
		hi := lo + batch
		if hi > len(events) {
			hi = len(events)
		}
		var buf bytes.Buffer
		if err := stream.EncodeJSONL(&buf, events[lo:hi]); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

// synthBatches builds one connection's pre-encoded traffic: the
// connection's disjoint machine fleet first (inventory precedes tickets,
// as everywhere in the stream contract), then nBatches of a deterministic
// ticket/sample mix whose timestamps sweep the observation window, each
// batch closing with a watermark advance. Deterministic for a given
// (seed, conn): two failload runs drive byte-identical traffic.
func synthBatches(conn, machines, batch, nBatches int, ticketShare float64,
	win model.Window, seed uint64) ([][]byte, error) {
	if machines < 1 {
		machines = 1
	}
	if nBatches < 1 {
		nBatches = 1
	}
	rng := xrand.Derive(seed, 0x10ad, uint64(conn))
	fleet := make([]*model.Machine, machines)
	for i := range fleet {
		kind := model.PM
		if i%2 == 1 {
			kind = model.VM
		}
		fleet[i] = &model.Machine{
			ID:      model.MachineID(fmt.Sprintf("load-c%d-m%d", conn, i)),
			Kind:    kind,
			System:  model.System(i%model.NumSystems + 1),
			Created: win.Start,
		}
	}

	span := win.End.Sub(win.Start)
	totalTimed := nBatches * batch
	events := make([]stream.Event, 0, machines+totalTimed+nBatches)
	for _, m := range fleet {
		events = append(events, stream.Event{Type: "machine", Machine: m})
	}
	var out [][]byte
	flush := func(evs []stream.Event) error {
		var buf bytes.Buffer
		if err := stream.EncodeJSONL(&buf, evs); err != nil {
			return err
		}
		out = append(out, buf.Bytes())
		return nil
	}

	emitted := 0
	for b := 0; b < nBatches; b++ {
		var last time.Time
		for i := 0; i < batch; i++ {
			frac := float64(emitted) / float64(totalTimed)
			at := win.Start.Add(time.Duration(frac * float64(span)))
			last = at
			m := fleet[rng.Intn(machines)]
			if rng.Float64() < ticketShare {
				t := model.Ticket{
					ID:          fmt.Sprintf("load-c%d-t%d", conn, emitted),
					ServerID:    m.ID,
					System:      m.System,
					Opened:      at,
					Closed:      at.Add(2 * time.Hour),
					Description: "synthetic load ticket",
					Resolution:  "closed by load generator",
					IsCrash:     rng.Float64() < 0.3,
					Class:       model.FailureClass(rng.Intn(6) + 1),
				}
				events = append(events, stream.Event{Type: "ticket", Ticket: &t})
			} else {
				at := at
				events = append(events, stream.Event{
					Type:     "sample",
					ServerID: m.ID,
					Metric:   monitordb.Metric(rng.Intn(4) + 1),
					Time:     &at,
					Value:    rng.Float64() * 100,
				})
			}
			emitted++
		}
		if !last.IsZero() {
			at := last
			events = append(events, stream.Event{Type: "advance", Time: &at})
		}
		if err := flush(events); err != nil {
			return nil, err
		}
		events = events[:0]
	}
	return out, nil
}
