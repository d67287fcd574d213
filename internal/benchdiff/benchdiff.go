// Package benchdiff compares two machine-readable run reports
// (BENCH_*.json) span by span and flags performance regressions. It is the
// engine behind cmd/benchdiff and the CI perf gate.
//
// Two kinds of numbers live in a report, with very different trust levels.
// Allocation counts are deterministic for a deterministic pipeline — the
// same study at the same scale mallocs the same number of times wherever
// it runs — so they are always compared, and a growth past the tolerance
// is a regression no matter what machines produced the files. Wall times
// are only commensurable between runs that had the same parallelism and a
// comparable machine underneath, so they are checked only when the run
// metadata matches (core count, GOMAXPROCS, memory within a factor of
// two) and, per span, when both spans closed under the same GOMAXPROCS.
package benchdiff

import (
	"fmt"
	"sort"
	"strings"

	"failscope/internal/obs"
)

// Options tunes a comparison.
type Options struct {
	// TimeTol is the allowed fractional wall-time growth per span (0.15 =
	// +15%) before it counts as a regression.
	TimeTol float64
	// AllocTol is the allowed fractional allocation-count growth per span.
	AllocTol float64
	// MinWallMS is the noise floor: spans whose baseline wall time is below
	// it are never time-checked (scheduling jitter dominates sub-noise
	// spans), though their allocations still are.
	MinWallMS float64
	// NewAllocFloor guards spans absent from the baseline alloc-wise or with
	// zero baseline allocations, where no ratio exists: a current count at
	// or under the floor passes, above it regresses.
	NewAllocFloor uint64
}

// DefaultOptions is the CI gate configuration: 15% tolerance both ways,
// 50ms noise floor, 10k allocations allowed for spans without a baseline.
func DefaultOptions() Options {
	return Options{TimeTol: 0.15, AllocTol: 0.15, MinWallMS: 50, NewAllocFloor: 10_000}
}

// Row is the comparison of one span path.
type Row struct {
	Path string // span names joined with "/", root first

	BaseWallMS, CurWallMS float64
	BaseAllocs, CurAllocs uint64

	// TimeChecked reports whether the wall-time comparison ran for this
	// span (meta comparable, both sides present, baseline above the noise
	// floor, same span-level GOMAXPROCS).
	TimeChecked    bool
	TimeRegressed  bool
	AllocRegressed bool

	// Removed marks a span present only in the baseline — a stage the
	// current run no longer has. It is reported, never a regression.
	Removed bool
}

// Result is one full report comparison.
type Result struct {
	// Comparable reports whether the two runs' metadata allows wall-time
	// comparison at all; Reason says why not.
	Comparable bool
	Reason     string
	Rows       []Row
	// Regressions counts rows with any regression flag set.
	Regressions int
}

// Regressed reports whether any span regressed.
func (r *Result) Regressed() bool { return r.Regressions > 0 }

// MetaComparable decides whether wall times from the two runs may be
// compared: same core count, same GOMAXPROCS, same stream-engine shard
// count (0 normalizes to 1 — old reports predate the field), and — when
// both report it — physical memory within a factor of two. Shard count is
// a parallelism knob exactly like GOMAXPROCS: a 4-shard daemon spreads
// apply work across four queues, so its wall times say nothing about a
// 1-shard baseline. Allocation gates do not go through this check — a
// per-event allocation regression is real at any shard count.
func MetaComparable(base, cur obs.RunMeta) (bool, string) {
	if base.NumCPU != cur.NumCPU {
		return false, fmt.Sprintf("num_cpu differs: baseline %d vs current %d", base.NumCPU, cur.NumCPU)
	}
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		return false, fmt.Sprintf("gomaxprocs differs: baseline %d vs current %d", base.GOMAXPROCS, cur.GOMAXPROCS)
	}
	if bs, cs := normShards(base.Shards), normShards(cur.Shards); bs != cs {
		return false, fmt.Sprintf("shard count differs: baseline %d vs current %d", bs, cs)
	}
	if base.MemoryMB > 0 && cur.MemoryMB > 0 {
		lo, hi := base.MemoryMB, cur.MemoryMB
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > 2*lo {
			return false, fmt.Sprintf("memory differs beyond 2x: baseline %d MiB vs current %d MiB", base.MemoryMB, cur.MemoryMB)
		}
	}
	return true, ""
}

// normShards folds the zero value onto 1: reports written before the
// shards field existed all came from single-engine runs.
func normShards(n int) int {
	if n <= 0 {
		return 1
	}
	return n
}

type spanAt struct {
	r *obs.SpanReport
}

// flatten indexes a span tree by path. Duplicate paths (repeated child
// names) keep the first occurrence, matching Find's pre-order semantics.
func flatten(root *obs.SpanReport) map[string]spanAt {
	out := make(map[string]spanAt)
	var walk func(prefix string, s *obs.SpanReport)
	walk = func(prefix string, s *obs.SpanReport) {
		if s == nil {
			return
		}
		path := s.Name
		if prefix != "" {
			path = prefix + "/" + s.Name
		}
		if _, dup := out[path]; !dup {
			out[path] = spanAt{r: s}
		}
		for _, c := range s.Children {
			walk(path, c)
		}
	}
	walk("", root)
	return out
}

// Compare diffs the current report against the baseline. Every span path
// of either report gets a row; one only in the baseline is marked Removed.
func Compare(base, cur *obs.RunReport, opts Options) *Result {
	res := &Result{}
	res.Comparable, res.Reason = MetaComparable(base.Meta, cur.Meta)

	baseSpans := flatten(base.Spans)
	curSpans := flatten(cur.Spans)
	paths := make([]string, 0, len(curSpans))
	for p := range curSpans {
		paths = append(paths, p)
	}
	for p := range baseSpans {
		if _, ok := curSpans[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)

	for _, path := range paths {
		b, inBase := baseSpans[path]
		cs, inCur := curSpans[path]
		if !inCur {
			res.Rows = append(res.Rows, Row{Path: path, BaseWallMS: b.r.WallMS, BaseAllocs: b.r.Allocs, Removed: true})
			continue
		}
		c := cs.r
		row := Row{Path: path, CurWallMS: c.WallMS, CurAllocs: c.Allocs}
		if inBase {
			row.BaseWallMS = b.r.WallMS
			row.BaseAllocs = b.r.Allocs
		}

		// Allocation check: deterministic, always on.
		if inBase && b.r.Allocs > 0 {
			limit := float64(b.r.Allocs) * (1 + opts.AllocTol)
			row.AllocRegressed = float64(c.Allocs) > limit
		} else {
			row.AllocRegressed = c.Allocs > opts.NewAllocFloor
		}

		// Wall-time check: only when everything lines up.
		if res.Comparable && inBase && b.r.WallMS >= opts.MinWallMS &&
			b.r.GOMAXPROCS == c.GOMAXPROCS {
			row.TimeChecked = true
			limit := b.r.WallMS * (1 + opts.TimeTol)
			row.TimeRegressed = c.WallMS > limit
		}

		if row.TimeRegressed || row.AllocRegressed {
			res.Regressions++
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Format renders the comparison as an aligned text table: one line per
// span, deltas as signed percentages, regression flags in the last column.
func Format(res *Result) string {
	var sb strings.Builder
	if !res.Comparable {
		fmt.Fprintf(&sb, "wall times not compared: %s\n", res.Reason)
	}
	fmt.Fprintf(&sb, "%-40s %12s %12s %8s %12s %12s %8s %s\n",
		"span", "base ms", "cur ms", "Δtime", "base allocs", "cur allocs", "Δalloc", "flags")
	for _, row := range res.Rows {
		flags := make([]string, 0, 2)
		if row.Removed {
			flags = append(flags, "REMOVED")
		}
		if row.TimeRegressed {
			flags = append(flags, "TIME-REGRESSED")
		}
		if row.AllocRegressed {
			flags = append(flags, "ALLOC-REGRESSED")
		}
		timeCol := "-"
		if row.TimeChecked {
			timeCol = pct(row.BaseWallMS, row.CurWallMS)
		}
		allocCol := "-"
		if row.BaseAllocs > 0 && !row.Removed {
			allocCol = pct(float64(row.BaseAllocs), float64(row.CurAllocs))
		}
		fmt.Fprintf(&sb, "%-40s %12.1f %12.1f %8s %12d %12d %8s %s\n",
			row.Path, row.BaseWallMS, row.CurWallMS, timeCol,
			row.BaseAllocs, row.CurAllocs, allocCol, strings.Join(flags, ","))
	}
	fmt.Fprintf(&sb, "%d span(s), %d regression(s)\n", len(res.Rows), res.Regressions)
	return sb.String()
}

func pct(base, cur float64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-base)/base)
}
