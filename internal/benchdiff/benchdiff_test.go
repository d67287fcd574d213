package benchdiff

import (
	"strings"
	"testing"

	"failscope/internal/obs"
)

func report(meta obs.RunMeta, spans *obs.SpanReport) *obs.RunReport {
	return &obs.RunReport{Name: "test", Meta: meta, Spans: spans}
}

func meta(cpus, procs, memMB int) obs.RunMeta {
	return obs.RunMeta{NumCPU: cpus, GOMAXPROCS: procs, MemoryMB: memMB}
}

func span(name string, wallMS float64, allocs uint64, procs int, children ...*obs.SpanReport) *obs.SpanReport {
	return &obs.SpanReport{Name: name, WallMS: wallMS, Allocs: allocs, GOMAXPROCS: procs, Children: children}
}

func TestCompareClean(t *testing.T) {
	m := meta(8, 8, 64_000)
	base := report(m, span("run", 1000, 500_000, 8, span("generate", 600, 300_000, 8)))
	cur := report(m, span("run", 1050, 490_000, 8, span("generate", 610, 250_000, 8)))
	res := Compare(base, cur, DefaultOptions())
	if !res.Comparable {
		t.Fatalf("comparable = false: %s", res.Reason)
	}
	if res.Regressed() {
		t.Fatalf("unexpected regression: %s", Format(res))
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.TimeChecked {
			t.Errorf("span %s: time not checked on comparable reports", row.Path)
		}
	}
}

func TestCompareAllocRegression(t *testing.T) {
	m := meta(8, 8, 64_000)
	base := report(m, span("run", 1000, 100_000, 8))
	cur := report(m, span("run", 1000, 120_000, 8)) // +20% > 15% tolerance
	res := Compare(base, cur, DefaultOptions())
	if !res.Regressed() {
		t.Fatalf("alloc regression not flagged: %s", Format(res))
	}
	if !res.Rows[0].AllocRegressed || res.Rows[0].TimeRegressed {
		t.Fatalf("wrong flags: %+v", res.Rows[0])
	}
}

func TestCompareTimeRegression(t *testing.T) {
	m := meta(8, 8, 64_000)
	base := report(m, span("run", 1000, 100_000, 8))
	cur := report(m, span("run", 1300, 100_000, 8)) // +30% > 15% tolerance
	res := Compare(base, cur, DefaultOptions())
	if !res.Regressed() || !res.Rows[0].TimeRegressed {
		t.Fatalf("time regression not flagged: %s", Format(res))
	}
}

func TestCompareSkipsTimeOnMetaMismatch(t *testing.T) {
	base := report(meta(8, 8, 64_000), span("run", 1000, 100_000, 8))
	cur := report(meta(4, 4, 64_000), span("run", 2000, 100_000, 4))
	res := Compare(base, cur, DefaultOptions())
	if res.Comparable {
		t.Fatal("4-core vs 8-core reports marked comparable")
	}
	if res.Reason == "" || !strings.Contains(res.Reason, "num_cpu") {
		t.Fatalf("reason = %q, want num_cpu mismatch", res.Reason)
	}
	if res.Regressed() {
		t.Fatalf("wall-time doubled on incomparable machines should not regress: %s", Format(res))
	}
	if res.Rows[0].TimeChecked {
		t.Fatal("time checked despite meta mismatch")
	}
}

func TestCompareMemoryMismatch(t *testing.T) {
	base := report(meta(8, 8, 8_000), span("run", 1000, 100_000, 8))
	cur := report(meta(8, 8, 64_000), span("run", 1000, 100_000, 8))
	if ok, reason := MetaComparable(base.Meta, cur.Meta); ok || !strings.Contains(reason, "memory") {
		t.Fatalf("8GB vs 64GB comparable = %v (%q)", ok, reason)
	}
	// Memory hint absent on one side: comparable (no evidence of mismatch).
	if ok, _ := MetaComparable(meta(8, 8, 0), meta(8, 8, 64_000)); !ok {
		t.Fatal("absent memory hint should not block comparison")
	}
}

func TestCompareSkipsTimeOnSpanProcsMismatch(t *testing.T) {
	// Run meta matches, but one span closed under a different GOMAXPROCS
	// (e.g. the process adjusted it mid-run): its time must not be judged.
	m := meta(8, 8, 64_000)
	base := report(m, span("run", 1000, 100_000, 8, span("analyze", 400, 10_000, 2)))
	cur := report(m, span("run", 1000, 100_000, 8, span("analyze", 900, 10_000, 8)))
	res := Compare(base, cur, DefaultOptions())
	for _, row := range res.Rows {
		if row.Path == "run/analyze" {
			if row.TimeChecked || row.TimeRegressed {
				t.Fatalf("span with mismatched GOMAXPROCS judged: %+v", row)
			}
		}
	}
}

func TestCompareNoiseFloor(t *testing.T) {
	m := meta(8, 8, 64_000)
	base := report(m, span("run", 1000, 100_000, 8, span("tiny", 5, 100, 8)))
	cur := report(m, span("run", 1000, 100_000, 8, span("tiny", 40, 100, 8)))
	res := Compare(base, cur, DefaultOptions())
	for _, row := range res.Rows {
		if row.Path == "run/tiny" && (row.TimeChecked || row.TimeRegressed) {
			t.Fatalf("sub-noise span judged on time: %+v", row)
		}
	}
}

func TestCompareNewSpanAllocFloor(t *testing.T) {
	m := meta(8, 8, 64_000)
	base := report(m, span("run", 1000, 100_000, 8))
	cur := report(m, span("run", 1000, 100_000, 8, span("extra", 10, 50_000, 8)))
	res := Compare(base, cur, DefaultOptions())
	if !res.Regressed() {
		t.Fatalf("new span with 50k allocs (floor 10k) not flagged: %s", Format(res))
	}
	cur2 := report(m, span("run", 1000, 100_000, 8, span("extra", 10, 2_000, 8)))
	if res2 := Compare(base, cur2, DefaultOptions()); res2.Regressed() {
		t.Fatalf("new span under the alloc floor flagged: %s", Format(res2))
	}
}

func TestCompareAllocsGateWithoutComparableMeta(t *testing.T) {
	// The whole point of the deterministic gate: a laptop and CI machine
	// still agree on allocation counts.
	base := report(meta(16, 16, 128_000), span("run", 100, 100_000, 16))
	cur := report(meta(2, 2, 4_000), span("run", 900, 150_000, 2))
	res := Compare(base, cur, DefaultOptions())
	if !res.Regressed() || !res.Rows[0].AllocRegressed {
		t.Fatalf("alloc regression must gate across machines: %s", Format(res))
	}
}

func TestShardCountComparability(t *testing.T) {
	// Shard count is a parallelism boundary like GOMAXPROCS: wall-time
	// verdicts across differing counts are refused outright.
	m1, m4 := meta(8, 8, 64_000), meta(8, 8, 64_000)
	m1.Shards, m4.Shards = 1, 4
	if ok, reason := MetaComparable(m1, m4); ok || !strings.Contains(reason, "shard") {
		t.Fatalf("1-vs-4 shards comparable = %v (%q), want refusal naming shards", ok, reason)
	}
	// Zero normalizes to one: reports that predate the field are
	// single-engine runs and stay comparable with explicit -shards 1.
	m0 := meta(8, 8, 64_000)
	if ok, reason := MetaComparable(m0, m1); !ok {
		t.Fatalf("0-vs-1 shards not comparable: %s", reason)
	}
	if ok, reason := MetaComparable(m4, m4); !ok {
		t.Fatalf("4-vs-4 shards not comparable: %s", reason)
	}
}

func TestShardMismatchSkipsTimeKeepsAllocGate(t *testing.T) {
	m1, m4 := meta(8, 8, 64_000), meta(8, 8, 64_000)
	m1.Shards, m4.Shards = 1, 4
	base := report(m1, span("run", 1000, 100_000, 8))
	// Current run is 3x faster on 4 shards — no wall-time verdict either
	// way — but allocates 3x more, which must still be flagged.
	cur := report(m4, span("run", 333, 300_000, 8))
	res := Compare(base, cur, DefaultOptions())
	if res.Comparable {
		t.Fatal("runs with differing shard counts judged comparable")
	}
	if res.Rows[0].TimeChecked {
		t.Fatal("wall time judged across differing shard counts")
	}
	if !res.Rows[0].AllocRegressed {
		t.Fatalf("alloc regression not flagged across shard counts: %s", Format(res))
	}
}

// TestCompareReportsRemovedSpans: a span only the baseline has gets a
// REMOVED row that is not a regression, however many allocations it had.
func TestCompareReportsRemovedSpans(t *testing.T) {
	m := meta(8, 8, 64_000)
	base := report(m, span("run", 1000, 500_000, 8,
		span("detect-generate", 400, 300_000, 8), span("detect-replay", 500, 100_000, 8)))
	cur := report(m, span("run", 600, 150_000, 8,
		span("detect-replay", 500, 100_000, 8, span("flatten", 100, 5_000, 8))))
	res := Compare(base, cur, DefaultOptions())
	if res.Regressed() {
		t.Fatalf("removed span counted as a regression: %s", Format(res))
	}
	var paths []string
	for _, row := range res.Rows {
		paths = append(paths, row.Path)
		if row.Removed != (row.Path == "run/detect-generate") {
			t.Errorf("span %s: removed = %v", row.Path, row.Removed)
		}
		if row.Removed && (row.BaseWallMS != 400 || row.BaseAllocs != 300_000 || row.CurAllocs != 0 || row.TimeChecked) {
			t.Errorf("removed row %+v: want baseline numbers only", row)
		}
	}
	want := "run run/detect-generate run/detect-replay run/detect-replay/flatten"
	if got := strings.Join(paths, " "); got != want {
		t.Fatalf("rows %q, want %q", got, want)
	}
	out := Format(res)
	if !strings.Contains(out, "REMOVED") || !strings.Contains(out, "0 regression(s)") {
		t.Fatalf("table does not show the removed span cleanly:\n%s", out)
	}
}
