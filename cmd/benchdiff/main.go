// Command benchdiff compares two run reports (BENCH_*.json) and exits
// non-zero when the current run regressed against the baseline: any span
// whose allocation count grew past -alloc-tol, or — when the two runs came
// from comparable machines — whose wall time grew past -time-tol.
//
// Allocation counts are deterministic, so they gate unconditionally. Wall
// times gate only when the reports' metadata matches (core count,
// GOMAXPROCS, memory within 2x) and each span pair closed under the same
// GOMAXPROCS; otherwise the time check is skipped with a note, unless
// -require-comparable turns the mismatch itself into a failure.
//
// Usage:
//
//	benchdiff -baseline BENCH_small.json -current /tmp/now.json
package main

import (
	"flag"
	"fmt"
	"os"

	"failscope/internal/benchdiff"
	"failscope/internal/obs"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline run report (committed BENCH_*.json)")
		currentPath  = flag.String("current", "", "current run report to check against the baseline")
		timeTol      = flag.Float64("time-tol", 0.15, "allowed fractional wall-time growth per span")
		allocTol     = flag.Float64("alloc-tol", 0.15, "allowed fractional allocation growth per span")
		minWallMS    = flag.Float64("min-wall-ms", 50, "skip time checks for spans whose baseline wall time is below this (noise floor)")
		newFloor     = flag.Uint64("new-alloc-floor", 10_000, "allocation allowance for spans with no baseline count and no baseline parent")
		requireComp  = flag.Bool("require-comparable", false, "fail when run metadata makes wall times incomparable instead of skipping them")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are both required")
		flag.Usage()
		os.Exit(2)
	}

	base, err := readReport(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := readReport(*currentPath)
	if err != nil {
		fatal(err)
	}

	res := benchdiff.Compare(base, cur, benchdiff.Options{
		TimeTol:       *timeTol,
		AllocTol:      *allocTol,
		MinWallMS:     *minWallMS,
		NewAllocFloor: *newFloor,
	})
	fmt.Print(benchdiff.Format(res))
	if *requireComp && !res.Comparable {
		fmt.Fprintf(os.Stderr, "benchdiff: reports not comparable: %s\n", res.Reason)
		os.Exit(1)
	}
	if res.Regressed() {
		os.Exit(1)
	}
}

func readReport(path string) (*obs.RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadRunReport(f)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(1)
}
