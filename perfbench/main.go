// Command perfbench is the end-to-end benchmark of the PMDebugger
// reproduction. Each run measures one workload for a fixed time and prints,
// as its last line, one JSON object with the correctness tally and the
// metrics:
//
//	perfbench --workload detect-memcached --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of the named workload. --trace 1
// prints the per-layer breakdown of every workload (the named one first),
// each given an equal share of --seconds. See README.md for the workloads,
// the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// defaultSeed is the seed whose exact counts the workloads pin.
const defaultSeed = 1

// minAccounted is the share of the untraced job_s a workload's layer
// times must account for in the traced run. It holds at the default
// sizes; at test sizes fixed costs leave more unaccounted.
const minAccounted = 0.9

// workload is one benchmark workload: run measures its end-to-end metrics,
// traced its layer breakdown.
type workload struct {
	name   string
	run    func(seed int64, seconds float64, m metrics, t *tally) error
	traced func(seed int64, seconds float64, m metrics, t *tally) error
}

// suite sizes the three workloads; tests run a small one.
type suite struct {
	detect detectBench
	crash  crashBench
	serve  serveBench
}

var defaultSuite = suite{detect: detectDefault, crash: crashDefault, serve: serveDefault}

func (s suite) workloads() []workload {
	return []workload{
		{"detect-memcached", s.detect.run, s.detect.traced},
		{"crash-btree", s.crash.run, s.crash.traced},
		{"serve-memcached", s.serve.run, s.serve.traced},
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(benchMain(defaultSuite, os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(s suite, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: detect-memcached, crash-btree or serve-memcached")
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	traced := fs.Int("trace", 0, "1 prints the per-layer breakdown instead of the end-to-end metrics")
	commit := fs.String("commit", "unknown", "commit recorded with the host metadata")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := s.workloads()
	sel := -1
	for i, w := range ws {
		if w.name == *name {
			sel = i
		}
	}
	if sel < 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of detect-memcached, crash-btree, serve-memcached), --seconds > 0 and --trace 0 or 1\n")
		return 2
	}

	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)
	m := metrics{}
	var t tally
	if *traced == 1 {
		// Every traced run measures every layer, so each prints every
		// per-layer metric; the named workload goes first.
		ws[0], ws[sel] = ws[sel], ws[0]
		for _, w := range ws {
			if err := w.traced(*seed, *seconds/float64(len(ws)), m, &t); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			if share := m[w.name+".accounted_ratio"].Value; share < minAccounted {
				t.fail("%s: layer times account for %.1f%% of job_s, want >= %.0f%%", w.name, share*100, minAccounted*100)
			} else {
				t.ok(1)
			}
		}
	} else {
		if err := ws[sel].run(*seed, *seconds, m, &t); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", ws[sel].name, err)
			return 1
		}
		rss, err := peakRSSMiB()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		m.set("peak_rss_mb", "MiB", rss)
	}

	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-40s %14.6f %s\n", n, m[n].Value, m[n].Unit)
	}
	for _, r := range t.reasons {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", r)
	}
	res := result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
