// Package traced runs a benchmark workload in-process: it calls each
// layer's public function with the same inputs and in the same order as the
// failanalyze and failscoped binaries do, and records a span around every
// call. The spans come from this package's files only; the program under
// test is not instrumented beyond what it does on its own.
package traced

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Track names a timeline. Spans on MainTrack never overlap, so their sum is
// the attributed part of the run's wall time.
const (
	MainTrack   = "main"
	ReaderTrack = "reader"
)

// Span is one timed layer call, relative to the recorder's start.
type Span struct {
	Name    string  `json:"name"`
	Track   string  `json:"track"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// Recorder keeps spans in memory until WriteFile. A nil *Recorder records
// nothing and reads no clock, which is the untraced twin.
type Recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []Span
	totals map[string]time.Duration // children timed inside a parent span
	counts map[string]float64
}

// NewRecorder starts a recorder whose clock begins now.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), totals: map[string]time.Duration{}, counts: map[string]float64{}}
}

// now reads the clock only when recording.
func (r *Recorder) now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records [start, end) on a track.
func (r *Recorder) span(track, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{
		Name: name, Track: track,
		StartMS: float64(start.Sub(r.t0)) / float64(time.Millisecond),
		EndMS:   float64(end.Sub(r.t0)) / float64(time.Millisecond),
	})
	r.mu.Unlock()
}

// mainSpan records a span that started at start and ends now on the main track.
func (r *Recorder) mainSpan(name string, start time.Time) {
	if r != nil {
		r.span(MainTrack, name, start, time.Now())
	}
}

// addTotal accumulates time spent in a child layer inside a main span.
func (r *Recorder) addTotal(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.totals[name] += d
	r.mu.Unlock()
}

// addCount accumulates a count measured at a layer boundary.
func (r *Recorder) addCount(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// Seconds is the summed duration of every span called name, plus any child
// total recorded under that name.
func (r *Recorder) Seconds(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ms float64
	for _, s := range r.spans {
		if s.Name == name {
			ms += s.EndMS - s.StartMS
		}
	}
	return ms/1e3 + r.totals[name].Seconds()
}

// Count returns an accumulated count (0 when never recorded).
func (r *Recorder) Count(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// Durations returns every span duration of one name on one track, in ms.
func (r *Recorder) Durations(track, name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Track == track && s.Name == name {
			out = append(out, s.EndMS-s.StartMS)
		}
	}
	return out
}

// Attributed is the time the main track's spans cover, in seconds.
func (r *Recorder) Attributed() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ms float64
	for _, s := range r.spans {
		if s.Track == MainTrack {
			ms += s.EndMS - s.StartMS
		}
	}
	return ms / 1e3
}

// WriteFile writes every span in start order, the child totals and the
// counts as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	r.mu.Lock()
	spans := append([]Span(nil), r.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartMS < spans[j].StartMS })
	totals := map[string]float64{}
	for k, v := range r.totals {
		totals[k] = v.Seconds()
	}
	doc := map[string]any{"spans": spans, "child_totals_s": totals, "counts": r.counts}
	b, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
