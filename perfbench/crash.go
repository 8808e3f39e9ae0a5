package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pmdebugger/internal/crashtest"
	"pmdebugger/internal/crashtest/scenarios"
	"pmdebugger/internal/pmem"
)

// crashBench is the crash-btree workload: one record-once crash-space
// exploration (crashtest.Run) of the b_tree scenario under the drop
// policy, exhaustive stride, pruning and dedup on, one dispatch segment
// and one checker worker per CPU. The scenario inserts ascending keys, so
// its inputs do not depend on the seed.
type crashBench struct {
	n       int // b_tree inserts
	workers int
	// pinned are the exact exploration counters for n; nil skips the
	// check (small test sizes compare against crashtest.RunSerial instead).
	pinned *crashCounts
}

type crashCounts struct{ points, pruned, images, dedup int }

func countsOf(r *crashtest.Result) crashCounts {
	return crashCounts{points: r.Points, pruned: r.PrunedPoints, images: r.Images, dedup: r.DedupImages}
}

var crashDefault = crashBench{
	n:       1200,
	workers: runtime.NumCPU(),
	pinned:  &crashCounts{points: 37629, pruned: 35224, images: 2405, dedup: 0},
}

func (b crashBench) config() crashtest.Config {
	return crashtest.Config{
		PoolSize: 1 << 20,
		Policy:   pmem.CrashDropPending,
		Stride:   1,
		Workers:  b.workers,
		Segments: 1,
		Prune:    true,
		Dedup:    true,
	}
}

// crashJob is one prepared exploration: the scenario wrapped in timers,
// plus the reference event count of an uninstrumented full execution.
type crashJob struct {
	prog   crashtest.Program
	check  crashtest.Checker
	events uint64

	recordS float64
	mu      sync.Mutex
	checks  []float64 // per-image checker wall time, seconds
}

// setup builds the scenario and executes it once to completion: the
// reference run records the program's event count and requires the
// checker to accept the final image, as crashtest.RunSerial does. The
// checker is always wrapped to time each image (the session latency);
// spans adds the timed Program wrapper of the traced run.
func (b crashBench) setup(spans bool) (*crashJob, error) {
	prog, check, err := scenarios.Build("b_tree", b.n, false)
	if err != nil {
		return nil, err
	}
	ref := pmem.New(b.config().PoolSize)
	if err := prog(ref); err != nil {
		return nil, fmt.Errorf("crash setup: reference run: %w", err)
	}
	final := ref.Crash(pmem.CrashDropPending, 0)
	cerr := check(final)
	final.Release()
	j := &crashJob{events: ref.EventCount()}
	ref.Release()
	if cerr != nil {
		return nil, fmt.Errorf("crash setup: checker rejects the completed program: %w", cerr)
	}
	j.prog = prog
	if spans {
		j.prog = func(pm *pmem.Pool) error {
			start := time.Now()
			err := prog(pm)
			j.recordS += time.Since(start).Seconds()
			return err
		}
	}
	j.check = func(img *pmem.Pool) error {
		start := time.Now()
		err := check(img)
		d := time.Since(start).Seconds()
		j.mu.Lock()
		j.checks = append(j.checks, d)
		j.mu.Unlock()
		return err
	}
	return j, nil
}

// verify checks an exploration: the scenario is crash-consistent, so every
// crash point must recover (each failure is a failed operation out of the
// points explored), the full execution must match the reference event
// count, and the counters must match the pinned ones.
func (b crashBench) verify(j *crashJob, res *crashtest.Result, t *tally) {
	if len(res.Failures) > 0 {
		t.count(res.Points, len(res.Failures), fmt.Sprintf("crash: %d failing crash point(s), first %v", len(res.Failures), res.Failures[0]))
	} else {
		t.ok(res.Points)
	}
	switch got := countsOf(res); {
	case res.TotalEvents != j.events:
		t.fail("crash: explored %d events, reference run has %d", res.TotalEvents, j.events)
	case b.pinned != nil && got != *b.pinned:
		t.fail("crash: counters %+v, pinned %+v", got, *b.pinned)
	default:
		t.ok(1)
	}
}

// explore runs one round: setup, then the exploration.
func (b crashBench) explore(spans bool, t *tally) (j *crashJob, res *crashtest.Result, tm timing, err error) {
	runtime.GC()
	tm.setupS = timed(func() { j, err = b.setup(spans) })
	if err != nil {
		return nil, nil, tm, err
	}
	runtime.GC()
	probe := gcProbe()
	tm.jobS = timed(func() { res, err = crashtest.Run(j.prog, j.check, b.config()) })
	tm.gc = probe()
	if err != nil {
		return nil, nil, tm, fmt.Errorf("crash: %w", err)
	}
	b.verify(j, res, t)
	return j, res, tm, nil
}

// run is the end-to-end run; a session is one checker call on one crash
// image.
func (b crashBench) run(_ int64, seconds float64, m metrics, t *tally) error {
	var s samples
	err := rounds(seconds, endToEndRounds, func(warm bool) error {
		j, _, tm, err := b.explore(false, t)
		if err == nil && !warm {
			lat := make([]float64, len(j.checks))
			for i, c := range j.checks {
				lat[i] = c * 1e3
			}
			s.add(tm, lat)
		}
		return err
	})
	if err != nil {
		return err
	}
	s.emit(m)
	return nil
}

// traced is the layer breakdown. Each round runs the untraced job and a
// traced one: the timed Program and Checker wrappers give record and check
// time, crashtest.Result gives the dispatcher's replay, snapshot and
// fingerprint time.
func (b crashBench) traced(_ int64, seconds float64, m metrics, t *tally) error {
	var (
		untraced, jobs, record, check, replay, snapshot, fingerprint []float64
		gc                                                           gcSamples
		last                                                         *crashtest.Result
	)
	err := rounds(seconds, tracedRounds, func(warm bool) error {
		_, _, plain, err := b.explore(false, t)
		if err != nil {
			return err
		}
		j, res, tm, err := b.explore(true, t)
		if err != nil || warm {
			return err
		}
		var checkS float64
		for _, c := range j.checks {
			checkS += c
		}
		untraced = append(untraced, plain.jobS)
		jobs = append(jobs, tm.jobS)
		gc.add(plain.gc)
		record = append(record, j.recordS)
		check = append(check, checkS)
		replay = append(replay, time.Duration(res.ReplayNanos).Seconds())
		snapshot = append(snapshot, time.Duration(res.SnapshotNanos).Seconds())
		fingerprint = append(fingerprint, time.Duration(res.FingerprintNanos).Seconds())
		last = res
		return nil
	})
	if err != nil {
		return err
	}
	const w = "crash-btree"
	job, checkS := median(untraced), median(check)
	workers := float64(b.config().Workers)
	rec, rep, snap, fp := median(record), median(replay), median(snapshot), median(fingerprint)
	m.set("crashtest.record_s", "s", rec)
	m.set("crashtest.check_s", "s", checkS)
	m.set("crashtest.check_ms_per_image", "ms", ratio(checkS*1e3, float64(last.Images)))
	m.set("crashtest.check_busy_ratio", "ratio", ratio(checkS, workers*job))
	m.set("pmem.replay_s", "s", rep)
	m.set("pmem.snapshot_s", "s", snap)
	m.set("pmem.fingerprint_s", "s", fp)
	m.set("crashtest.points", "count", float64(last.Points))
	m.set("crashtest.images", "count", float64(last.Images))
	m.set("crashtest.pruned_ratio", "ratio", ratio(float64(last.PrunedPoints), float64(last.Points)))
	m.set("crashtest.dedup_ratio", "ratio", ratio(float64(last.DedupImages), float64(last.Images+last.DedupImages)))
	gc.emit(m, w)
	// The checkers run beside the dispatcher; their summed time counts
	// once per worker.
	emitAccounting(m, w, rec+rep+snap+fp+checkS/workers, job, median(jobs))
	return nil
}
