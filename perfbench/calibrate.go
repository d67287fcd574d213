package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// The benchmark runs on a few cores of a shared host whose speed moves with
// its neighbours' load: two sets of identical runs there read up to twice
// apart in both wall and CPU time, which no bound on job_s or cpu_s can
// hold. Two things move: how fast the guest's CPUs run while it has them,
// and how much of the time the hypervisor takes them away (steal). So each
// pass's wall time is counted without the steal during it, and both its
// wall and CPU time are scaled by how much slower or faster a fixed job,
// the calibration, ran on either side of it than on the reference host.
// The calibration is the harness's own code: a change to the programs moves
// the scaled figures as it moves the raw ones, while a slower host slows a
// pass and the calibrations beside it alike and cancels. The raw figures,
// the steal and the calibration go to standard error.
const (
	// refCalS is the calibration's median CPU seconds on the reference
	// host (2 vCPUs of a shared KVM guest), so scaled figures read as
	// seconds on that host.
	refCalS = 0.18

	calWords = 1 << 23   // the calibration job's array: 64 MiB
	calSteps = 4_000_000 // random read-modify-write steps over it
	calReps  = 9         // calibration children per calibration point
)

// calibrationJob is what the calibration child runs: it fills a 64 MiB
// array and walks it at random, reading one word and incrementing another
// at every step. Like the programs' heap and map walks and their garbage
// collector, it waits on memory far more than it computes; of the jobs
// tried (this one, JSON encode and decode of heap records, a sort, pure
// arithmetic, a 256 MiB walk, forced collections of an 800,000-node linked heap)
// it followed the paper study's pass times most closely. It returns a
// checksum so that none of the work can be elided.
func calibrationJob() uint64 {
	buf := make([]uint64, calWords)
	for i := range buf {
		buf[i] = uint64(i)
	}
	mask := uint64(len(buf) - 1)
	x, sum := uint64(7), uint64(0)
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += buf[x&mask]
		buf[(x>>20)&mask]++
	}
	return sum
}

// runCalibrationJob is the calibration child's main.
func runCalibrationJob() {
	fmt.Println(calibrationJob())
}

// calPoint is one calibration: the median wall and CPU seconds of calReps
// calibration children.
type calPoint struct {
	wallS, cpuS float64
}

func (c calPoint) String() string {
	return fmt.Sprintf("{%.4f %.4f}", c.wallS, c.cpuS)
}

// hostSteal returns the seconds the hypervisor has taken from all CPUs
// since boot, from /proc/stat; 0 where it is unreadable.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var user, nice, system, idle, iowait, irq, softirq, steal float64
	fmt.Sscanf(string(b), "cpu %g %g %g %g %g %g %g %g", &user, &nice, &system, &idle, &iowait, &irq, &softirq, &steal)
	return steal / 100 // USER_HZ ticks
}

// scaled collects a run's passes and the calibrations between them.
type scaled struct {
	exe                       string     // the harness binary, run as the calibration child
	wantOut                   []byte     // the first calibration child's output
	points                    []calPoint // points[i] and points[i+1] bracket pass i
	rawWalls, rawCPUs, steals []float64
	walls, cpus               []float64 // scaled to the reference host
	stealAtStart              float64
}

// newScaled takes the calibration the first pass is compared with.
func newScaled(ctx context.Context) (*scaled, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &scaled{exe: exe}
	return s, s.calibrate(ctx)
}

// calibrate runs the calibration child calReps times and adds a point.
func (s *scaled) calibrate(ctx context.Context) error {
	var walls, cpus []float64
	for r := 0; r < calReps; r++ {
		var out bytes.Buffer
		p, err := spawn(ctx, &out, s.exe, "-calibrate")
		if err != nil {
			return err
		}
		u, err := p.wait(false)
		if err != nil {
			return err
		}
		if s.wantOut == nil {
			s.wantOut = bytes.Clone(out.Bytes())
		} else if !bytes.Equal(out.Bytes(), s.wantOut) {
			return fmt.Errorf("calibration child printed %q, the first printed %q", out.Bytes(), s.wantOut)
		}
		walls = append(walls, time.Since(p.start).Seconds())
		cpus = append(cpus, u.cpuS)
	}
	s.points = append(s.points, calPoint{wallS: median(walls), cpuS: median(cpus)})
	return nil
}

// start marks the start of a pass.
func (s *scaled) start() {
	s.stealAtStart = hostSteal()
}

// add records a pass that just ended and calibrates again. The pass's wall
// time less the steal per CPU during it is the time the guest ran it; that
// and its CPU time are scaled by the mean CPU time of the calibrations
// before and after it. The calibration child runs one thread, so its CPU
// time is its own steal-free running time.
func (s *scaled) add(ctx context.Context, wallS, cpuS float64) error {
	steal := hostSteal() - s.stealAtStart
	if err := s.calibrate(ctx); err != nil {
		return err
	}
	cal := (s.points[len(s.points)-2].cpuS + s.points[len(s.points)-1].cpuS) / 2
	s.rawWalls = append(s.rawWalls, wallS)
	s.rawCPUs = append(s.rawCPUs, cpuS)
	s.steals = append(s.steals, steal)
	s.walls = append(s.walls, (wallS-steal/float64(runtime.NumCPU()))*refCalS/cal)
	s.cpus = append(s.cpus, cpuS*refCalS/cal)
	return nil
}

// report prints the raw figures behind the scaled ones.
func (s *scaled) report(w io.Writer, what string) {
	fmt.Fprintf(w, "perfbench: %s: %d passes, raw wall %v s, raw cpu %v s, steal %.2f s, calibrations %v; scaled wall %.3f s, cpu %.3f s\n",
		what, len(s.rawWalls), s.rawWalls, s.rawCPUs, s.steals, s.points, median(s.walls), median(s.cpus))
}
