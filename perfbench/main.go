// Command perfbench is the repository's benchmark. It drives the program
// only through its public entry points — core.Pipeline, the serve HTTP
// handler and the lifecycle controller — and times the calls it makes:
//
//	perfbench -workload curate -seed 1 -seconds 25 -trace 0
//
// Each workload generates its inputs from -seed, measures for -seconds,
// checks the program's outputs, prints its figures as a table and ends with
// one JSON line: the end-to-end metrics with -trace 0, the per-layer metrics
// (from a traced run) with -trace 1. -workload all runs every workload.
// Build and run it through run.sh, which keeps every file it writes under
// .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"
)

// workload is one named set of inputs and the operations run on them.
type workload struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"curate", "the in-memory batch curation job the engineer waits on; the exact graph build dominates it", runCurate},
	{"curate-stream", "the same curation layers streamed through the disk feature store with a windowed graph", runStream},
	{"serve-hot", "request latency the serving user sees with featurization all cache hits", runServeHot},
	{"lifecycle-drift", "one drift episode: detection, re-mining, retraining, shadow scoring and reload under traffic", runLifecycle},
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports. What each one
// measures on each workload is laid out in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// env is what a workload run is given.
type env struct {
	seed    int64
	budget  time.Duration
	traced  bool
	workdir string
	out     io.Writer
	heap    heapPeak
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	checks            []check
	table             []stat
	e2e               map[string]float64
	layers            map[string]float64
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check records an output check; a failed check counts as a failed
// operation.
func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	o.attempted++
	if !ok {
		o.failed++
	}
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

func (o *outcome) add(st stat) { o.table = append(o.table, st) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Int("seconds", 25, "how long the run measures")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for stores and artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || w.name == *name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	// Hold the collector to its default pace however the environment sets
	// it, so runs compare.
	debug.SetGCPercent(100)

	fmt.Fprintln(stdout, hostFacts())
	results := map[string]any{}
	var last map[string]any
	for _, w := range todo {
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		dir, err := os.MkdirTemp(*workdir, w.name+"-")
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traced == 1, workdir: dir, out: stdout}
		fmt.Fprintf(stdout, "workload %s seed=%d seconds=%d trace=%d: %s\n", w.name, *seed, *seconds, *traced, w.why)
		o, err := w.run(e)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		last, err = report(stdout, o, e.traced)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		results[w.name] = last
	}
	var line []byte
	if len(todo) == 1 {
		line, _ = json.Marshal(last)
	} else {
		line, _ = json.Marshal(results)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report prints the run's table and checks and returns its result object.
func report(w io.Writer, o *outcome, traced bool) (map[string]any, error) {
	for _, st := range o.table {
		fmt.Fprintln(w, st)
	}
	if traced {
		for _, d := range perLayer {
			if v := o.layers[d.name]; v != 0 {
				fmt.Fprintf(w, "  layer %-28s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-32s %-6s %s\n", c.name, status, c.detail)
	}
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", "failed_share", share, "1", o.attempted)

	defs, vals := endToEnd, o.e2e
	if traced {
		defs, vals = perLayer, o.layers
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return map[string]any{
		"correct":   o.correct(),
		"attempted": max(o.attempted, 1),
		"failed":    o.failed,
		"metrics":   metrics,
	}, nil
}
