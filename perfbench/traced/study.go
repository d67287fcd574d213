package traced

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"failscope"
)

// StudyOutcome is what one in-process study run produced.
type StudyOutcome struct {
	Wall           time.Duration
	FlattenAllocMB float64 // bytes allocated by the flattener (traced runs only)
	Events         int     // replayed stream events, final advance included
}

// Study runs what `failanalyze -classify -fidelity-gate -detect-gate` does
// for the given study (scale and seed already set), through the failscope
// facade, and fails when either gate fails. Every layer call runs under a
// span when rec is non-nil.
func Study(study failscope.Study, rec *Recorder) (StudyOutcome, error) {
	var out StudyOutcome
	start := time.Now()

	// Flag handling as failanalyze does it: all CPUs, classification on,
	// and an observer because the fidelity gate wants its metrics.
	study = study.WithParallelism(0)
	study.Collect.SkipClassification = false
	o := failscope.NewObserver("failanalyze")
	study = study.WithObserver(o)

	// Study.Run, one facade call per stage.
	genSpan := o.Start("generate")
	gen := study.Generator
	gen.Observer = o.Under(genSpan)
	t := rec.now()
	field, err := failscope.Generate(gen)
	rec.mainSpan("dcsim.generate", t)
	genSpan.End()
	if err != nil {
		return out, err
	}
	colSpan := o.Start("collect")
	opts := study.Collect
	opts.Observer = o.Under(colSpan)
	t = rec.now()
	col, err := failscope.Collect(field, opts)
	rec.mainSpan("ingest.collect", t)
	colSpan.End()
	if err != nil {
		return out, err
	}
	anaSpan := o.Start("analyze")
	t = rec.now()
	rep, err := failscope.Analyze(failscope.AnalysisInput{Data: col.Data, Attrs: col.Attrs, Observer: o.Under(anaSpan)})
	rec.mainSpan("core.analyze", t)
	anaSpan.End()
	if err != nil {
		return out, err
	}
	res := &failscope.Result{Field: field, Collection: col, Report: rep}
	t = rec.now()
	scoreboard := failscope.ScoreFidelity(res, o)
	rec.mainSpan("fidelity.score", t)

	// runDetection: the field is generated a second time, flattened into
	// the event stream and applied to one engine in a single call.
	genSpan = o.Start("detect-generate")
	gen = study.Generator
	gen.Observer = o.Under(genSpan)
	t = rec.now()
	field, err = failscope.Generate(gen)
	rec.mainSpan("dcsim.generate", t)
	genSpan.End()
	if err != nil {
		return out, err
	}
	det := failscope.NewDetector(failscope.DetectorConfig{})
	eng, err := failscope.NewStreamEngine(failscope.StreamConfig{
		Observation: study.Generator.Observation,
		Detector:    det,
		Observer:    o,
	})
	if err != nil {
		return out, err
	}
	repSpan := o.Start("detect-replay")
	var before runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&before)
	}
	t = rec.now()
	events := failscope.StreamEventsFromField(field)
	rec.mainSpan("stream.flatten", t)
	if rec != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		out.FlattenAllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	end := study.Generator.Observation.End
	events = append(events, failscope.StreamEvent{Type: "advance", Time: &end})
	out.Events = len(events)
	t = rec.now()
	err = eng.Apply(events)
	rec.mainSpan("stream.replay_apply", t)
	repSpan.AddItems(len(events))
	repSpan.End()
	if err != nil {
		return out, err
	}
	t = rec.now()
	detBands := failscope.ScoreDetection(det.Snapshot())
	rec.mainSpan("detect.score", t)
	o.Finish()

	// The report failanalyze prints, rendered and discarded.
	t = rec.now()
	if c := col.Classifier; c != nil {
		fmt.Fprintf(io.Discard, "accuracy=%.1f%% crash recall=%.1f%%\n", 100*c.Accuracy, 100*c.CrashRecall)
	}
	io.WriteString(io.Discard, res.RenderReport())
	rec.mainSpan("report.render", t)

	out.Wall = time.Since(start)
	if err := scoreboard.Err(); err != nil {
		return out, fmt.Errorf("fidelity gate: %w", err)
	}
	if err := detBands.Err(); err != nil {
		return out, fmt.Errorf("detection gate: %w", err)
	}
	return out, nil
}
