package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pmdebugger/internal/memcached"
	"pmdebugger/internal/memslap"
	"pmdebugger/internal/serve"
	"pmdebugger/internal/trace"
)

// serveBench is the serve-memcached workload: an in-process pmserved
// instance and a closed loop of clients, each repeatedly dialing a default
// session (strict model, eager drain, unsharded), streaming a pre-recorded
// trace of the buggy memcached port and reading the report. It is a closed
// loop because each pmdebug -serve caller waits for its report.
type serveBench struct {
	clients  int // concurrent clients, one per core
	sessions int // sessions per client per job
	ops      int // memslap operations in the recorded trace
}

var serveDefault = serveBench{clients: 2, sessions: 100, ops: 4800}

// serveInput is the recorded trace and its reference report.
type serveInput struct {
	raw    []byte        // encoded trace
	events []trace.Event // the recorded events the clients stream
	opt    serve.Options
	expect string // serve.Offline's summary of raw
}

// record runs the buggy port through every command path and a seeded
// single-thread memslap, recording its trace.
func (b serveBench) record(seed int64) (*serveInput, error) {
	cache, err := memcached.New(memcached.Config{
		PoolSize: 16 << 20, HashBuckets: 4096, UseCAS: true, Bugs: true,
	})
	if err != nil {
		return nil, fmt.Errorf("serve record: %w", err)
	}
	rec := trace.NewRecorder(b.ops * 32)
	cache.PM().Attach(rec)
	if err := memslap.ExerciseAll(cache); err != nil {
		return nil, fmt.Errorf("serve record: %w", err)
	}
	if err := memslap.Run(cache, memslap.Config{Ops: b.ops, Threads: 1, Seed: seed}); err != nil {
		return nil, fmt.Errorf("serve record: %w", err)
	}
	cache.PM().Detach(rec)
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, rec.Events); err != nil {
		return nil, fmt.Errorf("serve record: encode: %w", err)
	}
	return &serveInput{
		raw:    buf.Bytes(),
		events: rec.Events,
		opt:    serve.Options{Tenant: "bench", Model: cache.Model()},
	}, nil
}

// offline replays the recorded bytes through serve.Offline, the
// in-process reference every session's report must equal.
func (in *serveInput) offline() (string, error) {
	rep, err := serve.Offline(bytes.NewReader(in.raw), in.opt)
	if err != nil {
		return "", fmt.Errorf("serve offline: %w", err)
	}
	return rep.Summary(), nil
}

// setup records the trace, computes the reference report and starts the
// server.
func (b serveBench) setup(seed int64) (*serveInput, *serve.Server, error) {
	in, err := b.record(seed)
	if err != nil {
		return nil, nil, err
	}
	if in.expect, err = in.offline(); err != nil {
		return nil, nil, err
	}
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, nil, err
	}
	return in, srv, nil
}

func shutdown(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// sessionTimes are one session's client-side phases, in seconds.
type sessionTimes struct{ dial, stream, wait float64 }

func (s sessionTimes) total() float64 { return s.dial + s.stream + s.wait }

// session runs one client session: dial, stream the events in
// slab-sized batches, read the report and compare it with the reference.
func (in *serveInput) session(addr string) (sessionTimes, error) {
	var st sessionTimes
	clock := newLapClock()
	sess, err := serve.Dial(addr, in.opt)
	st.dial = clock.lap()
	if err != nil {
		return st, err
	}
	for off := 0; off < len(in.events); off += trace.StreamBatchSize {
		sess.HandleBatch(in.events[off:min(off+trace.StreamBatchSize, len(in.events))])
	}
	st.stream = clock.lap()
	got, err := sess.Report()
	st.wait = clock.lap()
	if err != nil {
		return st, err
	}
	if got != in.expect {
		return st, fmt.Errorf("session %s report differs from serve.Offline", sess.ID())
	}
	return st, nil
}

// job runs every client's sessions concurrently and returns all session
// times. Each failed session counts as one failed operation.
func (b serveBench) job(in *serveInput, addr string, t *tally) []sessionTimes {
	times := make([][]sessionTimes, b.clients)
	errs := make([]tally, b.clients)
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < b.sessions; i++ {
				st, err := in.session(addr)
				errs[c].check(err)
				times[c] = append(times[c], st)
			}
		}(c)
	}
	wg.Wait()
	var all []sessionTimes
	for c := range times {
		t.add(errs[c])
		all = append(all, times[c]...)
	}
	return all
}

// round runs one setup and one job on a fresh server, returning the
// server for the caller's HTTP reads; the caller shuts it down.
func (b serveBench) round(seed int64, t *tally) (in *serveInput, srv *serve.Server, sessions []sessionTimes, tm timing, err error) {
	runtime.GC()
	tm.setupS = timed(func() { in, srv, err = b.setup(seed) })
	if err != nil {
		return nil, nil, nil, tm, err
	}
	runtime.GC()
	probe := gcProbe()
	tm.jobS = timed(func() { sessions = b.job(in, srv.Addr(), t) })
	tm.gc = probe()
	return in, srv, sessions, tm, nil
}

// run is the end-to-end run; a session is one client session from dial to
// the report frame being read.
func (b serveBench) run(seed int64, seconds float64, m metrics, t *tally) error {
	var s samples
	err := rounds(seconds, endToEndRounds, func(warm bool) error {
		_, srv, sessions, tm, err := b.round(seed, t)
		if err != nil {
			return err
		}
		if err := shutdown(srv); err != nil {
			return err
		}
		if !warm {
			lat := make([]float64, len(sessions))
			for i, st := range sessions {
				lat[i] = st.total() * 1e3
			}
			s.add(tm, lat)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.emit(m)
	return nil
}

// getJSON decodes one of the server's HTTP documents.
func getJSON(httpAddr, path string, v any) error {
	resp, err := http.Get("http://" + httpAddr + path)
	if err != nil {
		return fmt.Errorf("serve %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("serve %s: %w", path, err)
	}
	return nil
}

// traced is the layer breakdown: client-side phase timers per session,
// the in-process floor (serve.Offline) and trace codec times on the same
// bytes, and the server's own counters from /metrics and /sessions.
func (b serveBench) traced(seed int64, seconds float64, m metrics, t *tally) error {
	var (
		untraced, jobs, accounted                                 []float64
		dial, stream, wait, offline, encode, decode, backpressure []float64
		gc                                                        gcSamples
		decodeErrs, panics, retained, events                      float64
	)
	err := rounds(seconds, tracedRounds, func(warm bool) error {
		_, srv, _, plain, err := b.round(seed, t)
		if err != nil {
			return err
		}
		if err := shutdown(srv); err != nil {
			return err
		}
		in, srv, sessions, tm, err := b.round(seed, t)
		if err != nil {
			return err
		}
		var met serve.Metrics
		var infos []serve.SessionInfo
		err = getJSON(srv.HTTPAddr(), "/metrics", &met)
		if err == nil {
			err = getJSON(srv.HTTPAddr(), "/sessions", &infos)
		}
		if serr := shutdown(srv); err == nil {
			err = serr
		}
		if err != nil || warm {
			return err
		}
		untraced = append(untraced, plain.jobS)
		jobs = append(jobs, tm.jobS)
		gc.add(plain.gc)
		var busy float64
		for _, s := range sessions {
			dial = append(dial, s.dial*1e3)
			stream = append(stream, s.stream*1e3)
			wait = append(wait, s.wait*1e3)
			busy += s.total()
		}
		// Each client runs its sessions back to back, so the job is one
		// client's summed session phases.
		accounted = append(accounted, busy/float64(b.clients))
		var buf bytes.Buffer
		var offErr, encErr, decErr error
		offline = append(offline, 1e3*timed(func() { _, offErr = in.offline() }))
		encode = append(encode, 1e3*timed(func() { encErr = trace.WriteTrace(&buf, in.events) }))
		decode = append(decode, 1e3*timed(func() { _, decErr = trace.ReadTrace(bytes.NewReader(in.raw)) }))
		t.check(offErr)
		t.check(encErr)
		t.check(decErr)
		backpressure = append(backpressure, ratio(float64(met.BackpressureNanos)/1e6, float64(len(sessions))))
		decodeErrs, panics = float64(met.DecodeErrors), float64(met.HandlerPanics)
		retained, events = float64(len(infos)), float64(len(in.events))
		return nil
	})
	if err != nil {
		return err
	}
	const w = "serve-memcached"
	m.set("serve.dial_ms", "ms", median(dial))
	m.set("serve.stream_ms", "ms", median(stream))
	m.set("serve.report_wait_ms", "ms", median(wait))
	m.set("serve.offline_ms", "ms", median(offline))
	m.set("trace.encode_ms", "ms", median(encode))
	m.set("trace.decode_ms", "ms", median(decode))
	m.set("serve.backpressure_ms", "ms", median(backpressure))
	m.set("serve.decode_errors", "count", decodeErrs)
	m.set("serve.handler_panics", "count", panics)
	m.set("serve.sessions_retained", "count", retained)
	m.set("trace.events_per_session", "count", events)
	gc.emit(m, w)
	emitAccounting(m, w, median(accounted), median(untraced), median(jobs))
	return nil
}
