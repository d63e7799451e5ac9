package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"crossmodal/internal/trace"
)

// jobRun is the record of a workload's repeated job: its wall times with
// tracing off and on, the untraced jobs' peak live heaps, and the tracer
// the traced jobs wrote to.
type jobRun struct {
	untraced, traced samples
	heap             samples // MB
	tracer           *trace.Tracer
	root             string
	tracedWalls      []float64
}

// runJobs repeats job until the run's budget is spent, at least minJobs
// times. A traced run alternates untraced and traced jobs (at least one
// of each), so the tracing overhead is measured on the same inputs; each
// traced job runs under a root span named root. prep, when set, runs
// untimed and untraced before each job.
func runJobs(e *env, minJobs int, root string, prep func() error, job func(ctx context.Context, traced bool) error) (*jobRun, error) {
	jr := &jobRun{root: root}
	if e.traced {
		jr.tracer = trace.New()
		minJobs = max(minJobs, 2)
	}
	e.heap.start()
	defer e.heap.end()
	deadline := time.Now().Add(e.budget)
	for i := 0; i < minJobs || time.Now().Before(deadline); i++ {
		traced := e.traced && i%2 == 1
		if prep != nil {
			if err := prep(); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
		}
		// Start every job from a collected heap, so no job pays for the
		// garbage of the one before it.
		runtime.GC()
		e.heap.reset()
		ctx := context.Background()
		var sp trace.Span
		if traced {
			trace.SetDefault(jr.tracer)
			ctx, sp = jr.tracer.Start(ctx, root)
		}
		start := time.Now()
		err := job(ctx, traced)
		wall := time.Since(start)
		peak := e.heap.reset()
		if traced {
			sp.End()
			trace.SetDefault(nil)
		}
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		if traced {
			jr.traced.addDur(wall)
			jr.tracedWalls = append(jr.tracedWalls, wall.Seconds())
		} else {
			jr.untraced.addDur(wall)
			jr.heap.add(peak)
		}
	}
	return jr, nil
}

// report fills what every job-based workload reports: the jobs as
// operations, setup_s, the job time under the workload's own name
// (job_s), the peak live heap over the untraced jobs (peak_heap_mb), and in a traced run the
// tracing overhead, the reconcile check and the curation layers. It returns
// a traced run's spans, nil otherwise.
func (jr *jobRun) report(o *outcome, e *env, setup *samples, jobName string) (*spanSet, error) {
	o.attempted += jr.untraced.n() + jr.traced.n()
	o.add(timing("setup_s", "s", setup))
	o.e2e["setup_s"] = median(setup.sorted())
	if !e.traced {
		o.add(timing(jobName, "s", &jr.untraced))
		// Live heap is only known at the end of each GC cycle, and whether a
		// cycle ends near a job's high point is chance, so a job's own peak
		// swings between modes; the run's peak is the highest of its jobs.
		peaks := jr.heap.sorted()
		peak := quantile(peaks, 1)
		o.add(stat{name: "peak_heap_mb", value: peak, unit: "MB", n: len(peaks)})
		o.e2e["job_s"] = median(jr.untraced.sorted())
		o.e2e["peak_heap_mb"] = peak
		return nil, nil
	}
	jr.overhead(o, jobName)
	set, err := collect(jr.tracer)
	if err != nil {
		return nil, err
	}
	jr.reconcileJobs(o, set)
	curationLayers(o, set, jr.traced.n())
	return set, nil
}

// reconcileJobs checks, for every traced job, that each span equals its
// self time plus its children's durations and that the job's summed self
// times equal its separately timed wall time, both within reconcileTol.
func (jr *jobRun) reconcileJobs(o *outcome, set *spanSet) {
	roots := set.named(jr.root)
	if len(roots) != len(jr.tracedWalls) {
		o.check("reconcile", false, "%d %s spans for %d traced jobs", len(roots), jr.root, len(jr.tracedWalls))
		return
	}
	var worstTree, worstSum float64
	for i, r := range roots {
		tree, sum := reconcile(r)
		worstTree = max(worstTree, tree)
		worstSum = max(worstSum, math.Abs(sum-jr.tracedWalls[i])/jr.tracedWalls[i])
	}
	o.check("reconcile", worstTree <= reconcileTol && worstSum <= reconcileTol,
		"worst parent/child mismatch %.4f, stage sum vs wall %.4f (tolerance %.2f)", worstTree, worstSum, reconcileTol)
	o.layers["trace.reconcile_err"] = max(worstTree, worstSum)
}

// overhead reports traced against untraced job time.
func (jr *jobRun) overhead(o *outcome, name string) {
	u, t := median(jr.untraced.sorted()), median(jr.traced.sorted())
	o.add(timing(name+".untraced", "s", &jr.untraced))
	o.add(timing(name+".traced", "s", &jr.traced))
	if u > 0 {
		o.layers["trace.overhead"] = t / u
	}
}

// curationLayers fills the per-layer metrics of the curation stages from
// the traced jobs' spans: self seconds and counts per job.
func curationLayers(o *outcome, set *spanSet, jobs int) {
	per := func(v float64) float64 { return v / float64(jobs) }
	put := func(name string, v float64) { o.layers[name] = per(v) }

	f := set.agg("featurize")
	put("featurize.self_s", f.self)
	put("featurize.points", f.attrs["points"])
	m := set.agg("mining")
	put("mining.self_s", m.self)
	put("mining.candidates", m.attrs["candidates"])
	a := set.agg("lf.apply")
	put("lf.apply.self_s", a.self)
	put("lf.apply.lfs_kept", a.attrs["lfs_kept"])
	g := set.agg("labelprop.build_graph")
	put("labelprop.build_graph.self_s", g.self)
	put("labelprop.edges", g.attrs["edges"])
	put("labelprop.apply_delta.self_s", set.agg("labelprop.apply_delta").self)
	p := set.agg("labelprop.propagate")
	put("labelprop.propagate.self_s", p.self)
	put("labelprop.iters", p.attrs["iters"])
	put("labelprop.self_s", set.agg("labelprop").self)
	put("labelmodel.self_s", set.agg("labelmodel", "labelmodel.em", "labelmodel.supervised").self)
	put("fusion.vectorize.self_s", set.agg("fusion.vectorize").self)
	put("fusion.self_s", set.agg("fusion.early", "fusion.intermediate", "fusion.devise").self)
	t := set.agg("model.train", "model.epoch")
	put("model.train.self_s", t.self)
	put("model.batches", t.attrs["batches"])
	put("train.self_s", set.agg("train").self)
	put("pipeline.run.self_s", set.agg("pipeline.run").self)
	put("pipeline.curate.self_s", set.agg("pipeline.curate").self)
	put("pipeline.curate_streamed.self_s", set.agg("pipeline.curate_streamed").self)
	put("stream.ingest.self_s", set.agg("stream.ingest").self)
	ap := set.agg("diskstore.append_chunk")
	put("diskstore.append_chunk.self_s", ap.self)
	put("diskstore.bytes", ap.attrs["bytes"])
	sc := set.agg("diskstore.scan")
	put("diskstore.scan.self_s", sc.self)
	put("diskstore.scan_rows", sc.attrs["rows"])
	put("diskstore.open.self_s", set.agg("diskstore.open").self)
	featurestoreLayers(o, set)
}

// featurestoreLayers fills the serving feature store's per-call self time
// and hit ratio.
func featurestoreLayers(o *outcome, set *spanSet) {
	fs := set.agg("featurestore.featurize")
	if fs.calls > 0 {
		o.layers["featurestore.featurize.self_ms"] = fs.self * 1e3 / float64(fs.calls)
	}
	if pts := fs.attrs["points"]; pts > 0 {
		o.layers["featurestore.hit_ratio"] = fs.attrs["hits"] / pts
	}
}
