package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named figure of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; encoding/json sorts the keys, so
// the printed object is stable.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// tally counts the operations a workload attempted and how many of them
// failed a correctness check. The first few failure reasons are kept for
// the log.
type tally struct {
	attempted int
	failed    int
	reasons   []string
}

const maxReasons = 10

// count records attempted operations of which failed went wrong; reason
// describes the first failure.
func (t *tally) count(attempted, failed int, reason string) {
	t.attempted += attempted
	t.failed += failed
	if failed > 0 && len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, reason)
	}
}

func (t *tally) ok(n int) { t.count(n, 0, "") }

// fail records one failed operation out of one attempted.
func (t *tally) fail(format string, args ...any) { t.count(1, 1, fmt.Sprintf(format, args...)) }

// check counts one attempted operation that fails when err is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail("%v", err)
		return
	}
	t.ok(1)
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.reasons = append(t.reasons, o.reasons...)
	if len(t.reasons) > maxReasons {
		t.reasons = t.reasons[:maxReasons]
	}
}

// Minimum measured rounds per run. The traced run needs more: its
// accounting compares medians of two separate jobs, each of which varies
// by up to ±10% from round to round on a shared 2-CPU host.
const (
	endToEndRounds = 3
	tracedRounds   = 5
)

// rounds drives the measurement loop shared by every workload: one
// warm-up round whose figures are discarded, then rounds until the
// deadline has passed and at least minRounds were measured. Round errors
// stop the loop.
func rounds(seconds float64, minRounds int, round func(warm bool) error) error {
	if err := round(true); err != nil {
		return err
	}
	start := time.Now()
	deadline := time.Duration(seconds * float64(time.Second))
	for i := 0; i < minRounds || time.Since(start) < deadline; i++ {
		if err := round(false); err != nil {
			return err
		}
	}
	return nil
}

// timed runs f and returns its wall time in seconds.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// lapClock times consecutive intervals.
type lapClock struct{ last time.Time }

func newLapClock() *lapClock { return &lapClock{last: time.Now()} }

// lap returns the seconds since the previous lap (or the clock's start).
func (c *lapClock) lap() float64 {
	now := time.Now()
	d := now.Sub(c.last).Seconds()
	c.last = now
	return d
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timing is one round's set-up and job wall times, with the GC activity
// across the job.
type timing struct {
	setupS, jobS float64
	gc           gcDelta
}

// gcDelta is the runtime.MemStats difference across one job.
type gcDelta struct {
	cycles  float64
	pauseMs float64
	allocMB float64
}

// gcProbe snapshots the GC counters; call the returned func after the job.
func gcProbe() func() gcDelta {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() gcDelta {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return gcDelta{
			cycles:  float64(after.NumGC - before.NumGC),
			pauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
			allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		}
	}
}

// gcSamples collects per-job GC deltas and reports their medians under
// the workload's prefix.
type gcSamples struct{ cycles, pauseMs, allocMB []float64 }

func (g *gcSamples) add(d gcDelta) {
	g.cycles = append(g.cycles, d.cycles)
	g.pauseMs = append(g.pauseMs, d.pauseMs)
	g.allocMB = append(g.allocMB, d.allocMB)
}

func (g *gcSamples) emit(m metrics, workload string) {
	m.set(workload+".go.gc_cycles", "count", median(g.cycles))
	m.set(workload+".go.gc_pause_ms", "ms", median(g.pauseMs))
	m.set(workload+".go.alloc_mb", "MiB", median(g.allocMB))
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// samples gathers an end-to-end run's per-round figures; the session
// latencies of every measured round are pooled for the percentiles.
type samples struct{ setups, jobs, sessions []float64 }

// add records one measured round; sessions are its session latencies (ms).
func (s *samples) add(tm timing, sessions []float64) {
	s.setups = append(s.setups, tm.setupS)
	s.jobs = append(s.jobs, tm.jobS)
	s.sessions = append(s.sessions, sessions...)
}

// emit reports the end-to-end metrics a workload measures itself;
// peak_rss_mb is added by the caller for the whole process.
func (s *samples) emit(m metrics) {
	m.set("setup_s", "s", median(s.setups))
	m.set("job_s", "s", median(s.jobs))
	m.set("session_p50_ms", "ms", quantile(s.sessions, 0.50))
	m.set("session_p95_ms", "ms", quantile(s.sessions, 0.95))
}

// emitAccounting reports the traced run's accounting for one workload:
// the untraced and span-timed job medians, the tracing overhead (their
// difference) and the share of the untraced job the layer times account
// for.
func emitAccounting(m metrics, workload string, layers, untraced, traced float64) {
	m.set(workload+".untraced_job_s", "s", untraced)
	m.set(workload+".traced_job_s", "s", traced)
	m.set(workload+".tracing_overhead_s", "s", traced-untraced)
	m.set(workload+".accounted_ratio", "ratio", ratio(layers, untraced))
}
