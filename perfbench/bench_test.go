package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pmdebugger/internal/crashtest"
	"pmdebugger/internal/crashtest/scenarios"
)

// smallSuite runs every workload at a size a test can afford.
var smallSuite = suite{
	detect: detectBench{ops: 3000, keys: 300, window: 100},
	crash:  crashBench{n: 30, workers: 2},
	serve:  serveBench{clients: 2, sessions: 3, ops: 200},
}

// runMain runs the benchmark's command line on the small suite and
// decodes its last line.
func runMain(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := benchMain(smallSuite, args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%v: exit %d, result %+v\nstderr:\n%s", args, code, res, stderr.String())
	}
	return res
}

type spec struct{ Name, Unit string }

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []spec) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

func emitted(m metrics) []spec {
	var out []spec
	for name, v := range m {
		out = append(out, spec{name, v.Unit})
	}
	return out
}

func sameSpecs(t *testing.T, what string, got, want []spec) {
	t.Helper()
	less := func(s []spec) func(i, j int) bool { return func(i, j int) bool { return s[i].Name < s[j].Name } }
	sort.Slice(got, less(got))
	sort.Slice(want, less(want))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s emits\n  %v\nBENCHMARK.json declares\n  %v", what, got, want)
	}
}

// TestSmokeAndMetricNames runs every workload end to end and every layer
// breakdown, and checks that they print exactly the metrics BENCHMARK.json
// declares, with their units. The breakdowns are called directly: the
// accounting check of a traced run holds at the default sizes only.
func TestSmokeAndMetricNames(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range smallSuite.workloads() {
		res := runMain(t, "--workload", w.name, "--seed", "3", "--seconds", "0.01", "--trace", "0")
		sameSpecs(t, w.name, emitted(res.Metrics), endToEnd)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v.Value)
			}
		}
	}
	m := metrics{}
	var tl tally
	for _, w := range smallSuite.workloads() {
		if err := w.traced(3, 0.01, m, &tl); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
	}
	if tl.failed != 0 || tl.attempted == 0 {
		t.Errorf("layer breakdowns: %d of %d operations failed: %v", tl.failed, tl.attempted, tl.reasons)
	}
	sameSpecs(t, "traced run", emitted(m), perLayer)
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "crash-btree", "--trace", "2"},
		{"--workload", "crash-btree", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := benchMain(smallSuite, args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestDetectPinnedCounts runs the default-size job on the default seed,
// whose event and instruction counts the benchmark pins.
func TestDetectPinnedCounts(t *testing.T) {
	b := detectDefault
	var tl tally
	var lat []float64
	if _, err := b.endToEnd(defaultSeed, &lat, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("default job failed: %v", tl.reasons)
	}
	if want := b.ops / b.window; len(lat) != want {
		t.Errorf("%d latency samples, want %d", len(lat), want)
	}
}

// TestDetectCountsRepeat checks that a seed's event count is exact: two
// jobs on one seed count the same, another seed counts differently.
func TestDetectCountsRepeat(t *testing.T) {
	b := smallSuite.detect
	count := func(seed int64) detectCounts {
		var tl tally
		j, err := b.setup(seed, pmdebugger)
		if err != nil {
			t.Fatal(err)
		}
		var lat []float64
		b.issue(j, &lat, &tl)
		j.cache.PM().End()
		got := b.verify(j, seed, j.det.Report(), &tl)
		if tl.failed != 0 {
			t.Fatalf("seed %d: %v", seed, tl.reasons)
		}
		return got
	}
	if a, b := count(5), count(5); a != b {
		t.Errorf("seed 5 counted %+v, then %+v", a, b)
	}
	if a, b := count(5), count(6); a == b {
		t.Errorf("seeds 5 and 6 both counted %+v", a)
	}
}

// TestCrashPinnedCounts runs the default-size exploration, whose counters
// the benchmark pins.
func TestCrashPinnedCounts(t *testing.T) {
	var tl tally
	if _, _, _, err := crashDefault.explore(false, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("default exploration failed: %v", tl.reasons)
	}
}

// TestCrashMatchesSerial compares the benchmark's exploration with the
// exhaustive re-execution reference at a small size.
func TestCrashMatchesSerial(t *testing.T) {
	b := smallSuite.crash
	var tl tally
	_, got, _, err := b.explore(true, &tl)
	if err != nil {
		t.Fatal(err)
	}
	prog, check, err := scenarios.Build("b_tree", b.n, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := crashtest.RunSerial(prog, check, b.config())
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEvents != ref.TotalEvents || got.Points != ref.Points {
		t.Errorf("explored %d events / %d points, serial %d / %d", got.TotalEvents, got.Points, ref.TotalEvents, ref.Points)
	}
	if sum := got.Images + got.PrunedPoints + got.DedupImages; sum != ref.Images {
		t.Errorf("images+pruned+deduped = %d, serial checked %d", sum, ref.Images)
	}
	if !reflect.DeepEqual(got.FailureKeys(), ref.FailureKeys()) {
		t.Errorf("failure sets differ: %v, serial %v", got.FailureKeys(), ref.FailureKeys())
	}
	if tl.failed != 0 {
		t.Errorf("exploration failed its checks: %v", tl.reasons)
	}
}

// TestServeMatchesOffline checks that served reports equal the offline
// replay, and that the reference is a real report of the buggy port.
func TestServeMatchesOffline(t *testing.T) {
	b := smallSuite.serve
	var tl tally
	in, srv, sessions, _, err := b.round(9, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if err := shutdown(srv); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted != b.clients*b.sessions || len(sessions) != tl.attempted {
		t.Fatalf("%d of %d sessions failed (%d timed): %v", tl.failed, tl.attempted, len(sessions), tl.reasons)
	}
	if !strings.Contains(in.expect, "bug(s) detected") {
		t.Errorf("reference report has no bugs:\n%s", in.expect)
	}
	again, err := b.record(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.raw, in.raw) {
		t.Errorf("seed 9 recorded %d bytes, then %d different bytes", len(in.raw), len(again.raw))
	}
}
