package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"

	"pmdebugger/internal/baselines"
	"pmdebugger/internal/core"
	"pmdebugger/internal/memcached"
	"pmdebugger/internal/report"
)

// detectBench is the detect-memcached workload: one client thread drives
// the bug-free memcached port (strict model, CAS on) through a seeded
// schedule of sets and gets with PMDebugger attached inline, then ends the
// program and renders the report. The job is single-goroutine on purpose:
// one application thread keeps the event count exact, and detection modes
// with several goroutines were bimodal on a 2-CPU host.
type detectBench struct {
	ops    int // cache operations per job
	keys   int // distinct keys
	window int // operations per latency sample ("session")
	// pinned holds the exact event and instruction counts of the default
	// seed; a job on that seed that counts differently fails.
	pinned map[int64]detectCounts
}

type detectCounts struct{ events, stores, flushes, fences uint64 }

var detectDefault = detectBench{
	ops:    250_000,
	keys:   25_000,
	window: 100,
	pinned: map[int64]detectCounts{
		defaultSeed: {events: 5102722, stores: 2301492, flushes: 1400609, fences: 1400609},
	},
}

// Payloads are 64-byte values; a set stores one of a few seeded payloads
// so a get can be checked against the last value set for its key.
const (
	valueSize = 64
	payloads  = 16
)

// cacheOp is one scheduled operation.
type cacheOp struct {
	key    uint32
	value  int16 // payload index for a set, -1 for a get
	expect int16 // for a get: payload index the key holds, -1 for a miss
}

type detectInput struct {
	keys     []string
	payloads [][]byte
	warm     []int16 // payload index each key is populated with at setup
	ops      []cacheOp
}

// generate builds the seeded inputs: a payload for every key to warm the
// cache with, then the op schedule (half sets, half gets, keys uniform
// over the key space) with each get's expected result.
func (b detectBench) generate(seed int64) detectInput {
	rng := rand.New(rand.NewSource(seed))
	in := detectInput{
		keys:     make([]string, b.keys),
		payloads: make([][]byte, payloads),
		warm:     make([]int16, b.keys),
		ops:      make([]cacheOp, b.ops),
	}
	for i := range in.keys {
		in.keys[i] = fmt.Sprintf("key-%08d", i)
	}
	for i := range in.payloads {
		p := make([]byte, valueSize)
		rng.Read(p)
		in.payloads[i] = p
	}
	for i := range in.warm {
		in.warm[i] = int16(rng.Intn(payloads))
	}
	last := append([]int16(nil), in.warm...)
	for i := range in.ops {
		k := uint32(rng.Intn(b.keys))
		if rng.Intn(2) == 0 {
			v := int16(rng.Intn(payloads))
			in.ops[i] = cacheOp{key: k, value: v, expect: -1}
			last[k] = v
		} else {
			in.ops[i] = cacheOp{key: k, value: -1, expect: last[k]}
		}
	}
	return in
}

// handlerKind selects what observes the cache's instruction stream: the
// three jobs of the paper's Fig. 8 split.
type handlerKind int

const (
	native     handlerKind = iota // no handler: the program alone
	nullTool                      // Nulgrind: emission without bookkeeping
	pmdebugger                    // the detector, inline
)

type detectJob struct {
	in    detectInput
	cache *memcached.Cache
	det   baselines.Detector // nil for the native job
}

// setup generates the inputs, builds the cache with its handler attached
// and warms it with every key, so the job's gets hit.
func (b detectBench) setup(seed int64, kind handlerKind) (*detectJob, error) {
	j := &detectJob{in: b.generate(seed)}
	cache, err := memcached.New(memcached.Config{UseCAS: true})
	if err != nil {
		return nil, fmt.Errorf("detect setup: %w", err)
	}
	j.cache = cache
	switch kind {
	case nullTool:
		j.det = baselines.NewNulgrind()
	case pmdebugger:
		j.det = core.New(core.Config{Model: cache.Model()})
	}
	if j.det != nil {
		cache.PM().Attach(j.det)
	}
	for k, v := range j.in.warm {
		if err := cache.Set(0, j.in.keys[k], j.in.payloads[v], 0, 0); err != nil {
			return nil, fmt.Errorf("detect setup: warm %s: %w", j.in.keys[k], err)
		}
	}
	return j, nil
}

// issue runs the schedule, appending the wall time of every window of
// b.window operations to lat (ms) and counting wrong results in t.
func (b detectBench) issue(j *detectJob, lat *[]float64, t *tally) {
	wrong, first := 0, ""
	clock := newLapClock()
	for i, o := range j.in.ops {
		key := j.in.keys[o.key]
		if o.value >= 0 {
			if err := j.cache.Set(0, key, j.in.payloads[o.value], 0, 0); err != nil {
				if wrong == 0 {
					first = fmt.Sprintf("set %s: %v", key, err)
				}
				wrong++
			}
		} else {
			v, _, hit := j.cache.Get(0, key)
			if hit != (o.expect >= 0) || (hit && !bytes.Equal(v, j.in.payloads[o.expect])) {
				if wrong == 0 {
					first = fmt.Sprintf("get %s: hit=%v, want payload %d", key, hit, o.expect)
				}
				wrong++
			}
		}
		if (i+1)%b.window == 0 {
			*lat = append(*lat, clock.lap()*1e3)
		}
	}
	t.count(len(j.in.ops), wrong, first)
}

// verify checks the finished job's report: the port is bug-free, so any
// reported bug is a false positive; on a pinned seed the event and
// instruction counts must match exactly. It counts as one operation.
func (b detectBench) verify(j *detectJob, seed int64, rep *report.Report, t *tally) detectCounts {
	got := detectCounts{
		events:  j.cache.PM().EventCount(),
		stores:  rep.Counters.Stores,
		flushes: rep.Counters.Flushes,
		fences:  rep.Counters.Fences,
	}
	switch want, pinned := b.pinned[seed]; {
	case rep.Len() != 0 || len(rep.Failures) != 0:
		t.fail("detect: %d false positive(s), %d failure(s) on the bug-free port", rep.Len(), len(rep.Failures))
	case pinned && got != want:
		t.fail("detect: counts %+v, pinned %+v", got, want)
	default:
		t.check(j.cache.Check())
	}
	return got
}

// endToEnd runs one round of the end-to-end job: setup, then the
// schedule, Pool.End and the rendered report with PMDebugger inline, each
// timed; the report is verified after the clock stops.
func (b detectBench) endToEnd(seed int64, lat *[]float64, t *tally) (tm timing, err error) {
	runtime.GC()
	var j *detectJob
	tm.setupS = timed(func() { j, err = b.setup(seed, pmdebugger) })
	if err != nil {
		return tm, err
	}
	runtime.GC()
	probe := gcProbe()
	var rep *report.Report
	tm.jobS = timed(func() {
		b.issue(j, lat, t)
		j.cache.PM().End()
		rep = j.det.Report()
		_ = rep.Summary()
	})
	tm.gc = probe()
	b.verify(j, seed, rep, t)
	return tm, nil
}

func (b detectBench) run(seed int64, seconds float64, m metrics, t *tally) error {
	var s samples
	err := rounds(seconds, endToEndRounds, func(warm bool) error {
		var windows []float64
		tm, err := b.endToEnd(seed, &windows, t)
		if err == nil && !warm {
			s.add(tm, windows)
		}
		return err
	})
	if err != nil {
		return err
	}
	s.emit(m)
	return nil
}

// traced is the layer breakdown: each round runs the untraced job plus
// the native, null-tool and span-timed PMDebugger jobs on the same
// schedule.
func (b detectBench) traced(seed int64, seconds float64, m metrics, t *tally) error {
	var (
		untraced, nativeS, nullS, opsS, endS, renderS []float64
		gc                                            gcSamples
		counts                                        detectCounts
		ctr                                           report.Counters
	)
	// job runs one job with the given handler and returns the time of its
	// op phase and of Pool.End; the report is rendered by the caller.
	job := func(kind handlerKind) (*detectJob, float64, float64, error) {
		runtime.GC()
		j, err := b.setup(seed, kind)
		if err != nil {
			return nil, 0, 0, err
		}
		runtime.GC()
		var lat []float64
		ops := timed(func() { b.issue(j, &lat, t) })
		end := timed(j.cache.PM().End)
		return j, ops, end, nil
	}
	err := rounds(seconds, tracedRounds, func(warm bool) error {
		var lat []float64
		tm, err := b.endToEnd(seed, &lat, t)
		if err != nil {
			return err
		}
		_, nat, natEnd, err := job(native)
		if err != nil {
			return err
		}
		_, null, nullEnd, err := job(nullTool)
		if err != nil {
			return err
		}
		pj, ops, end, err := job(pmdebugger)
		if err != nil {
			return err
		}
		var prep *report.Report
		render := timed(func() {
			prep = pj.det.Report()
			_ = prep.Summary()
		})
		counts = b.verify(pj, seed, prep, t)
		ctr = prep.Counters
		if !warm {
			untraced = append(untraced, tm.jobS)
			gc.add(tm.gc)
			nativeS = append(nativeS, nat+natEnd)
			nullS = append(nullS, null+nullEnd)
			opsS = append(opsS, ops)
			endS = append(endS, end)
			renderS = append(renderS, render)
		}
		return nil
	})
	if err != nil {
		return err
	}
	const w = "detect-memcached"
	nat, null, ops := median(nativeS), median(nullS), median(opsS)
	end, render := median(endS), median(renderS)
	detect := ops - null
	m.set("memcached.native_s", "s", nat)
	m.set("pmem.emit_s", "s", null-nat)
	m.set("core.detect_s", "s", detect)
	m.set("core.detect_ns_per_event", "ns", ratio(detect*1e9, float64(counts.events)))
	m.set("pmem.end_s", "s", end)
	m.set("report.render_s", "s", render)
	m.set("trace.events", "count", float64(counts.events))
	m.set("core.index_hit_ratio", "ratio", ratio(float64(ctr.IndexLineHits), float64(ctr.IndexLineHits+ctr.IndexLineMisses)))
	m.set("core.mru_hit_ratio", "ratio", ratio(float64(ctr.MRUProbeHits), float64(ctr.Stores+ctr.Flushes)))
	m.set("core.array_spill_ratio", "ratio", ratio(float64(ctr.ArraySpills), float64(ctr.ArrayAppends+ctr.ArraySpills)))
	m.set("core.tree_reorgs", "count", float64(ctr.TreeReorgs))
	gc.emit(m, w)
	// The layers telescope: native + emit + detect + end + render is the
	// span-timed PMDebugger job.
	traced := ops + end + render
	emitAccounting(m, w, traced, median(untraced), traced)
	return nil
}
