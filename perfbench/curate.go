package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"crossmodal/internal/core"
	"crossmodal/internal/metrics"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
)

// setups is how many times a run builds its set-up; setup_s is their
// median and the last one is used.
const setups = 3

// org is the organization a workload adapts: the world its resources
// observe, the resource library and a curation pipeline.
type org struct {
	world *synth.World
	lib   *resource.Library
	task  *synth.Task
	pipe  *core.Pipeline
}

// seededOpts are the pipeline's default options under the workload seed.
func seededOpts(seed int64) core.Options {
	opts := core.DefaultOptions()
	opts.Seed = seed
	return opts
}

// newOrg builds the organization — the default world, which the program
// treats as fixed, and its resource library — and a pipeline over it. The
// workload seed drives what is drawn from the world: corpora, traffic and
// requests.
func newOrg(opts core.Options) (*org, error) {
	world, err := synth.NewWorld(synth.DefaultConfig())
	if err != nil {
		return nil, err
	}
	lib, err := resource.StandardLibrary(world)
	if err != nil {
		return nil, err
	}
	task, err := synth.TaskByName("CT1")
	if err != nil {
		return nil, err
	}
	pipe, err := core.NewPipeline(lib, opts)
	if err != nil {
		return nil, err
	}
	return &org{world: world, lib: lib, task: task, pipe: pipe}, nil
}

// setupRepeated runs build setups times, records each duration, and
// returns the last result.
func setupRepeated[T any](setup *samples, build func() (T, error)) (T, error) {
	var v T
	var err error
	for i := 0; i < setups; i++ {
		start := time.Now()
		if v, err = build(); err != nil {
			return v, err
		}
		setup.addDur(time.Since(start))
	}
	return v, nil
}

// runCurate times the in-memory pipeline (Pipeline.Run) on CT1 at the
// default dataset size, followed by test-set evaluation.
func runCurate(e *env) (*outcome, error) {
	o := newOutcome()
	var setup samples
	type curateSetup struct {
		org *org
		ds  *synth.Dataset
	}
	s, err := setupRepeated(&setup, func() (curateSetup, error) {
		g, err := newOrg(seededOpts(e.seed))
		if err != nil {
			return curateSetup{}, err
		}
		cfg := synth.DefaultDatasetConfig()
		cfg.Seed = e.seed
		ds, err := synth.BuildDataset(g.world, g.task, cfg)
		return curateSetup{g, ds}, err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	testLabels := synth.Labels(s.ds.TestImage)

	var auprcs, f1s []float64
	jr, err := runJobs(e, 2, "bench.curate", nil, func(ctx context.Context, traced bool) error {
		res, err := s.org.pipe.Run(ctx, s.ds)
		if err != nil {
			return err
		}
		ctx, sp := trace.Start(ctx, "bench.eval")
		defer sp.End()
		vecs, err := s.org.pipe.Featurize(ctx, s.ds.TestImage)
		if err != nil {
			return err
		}
		auprcs = append(auprcs, metrics.AUPRC(testLabels, res.Predictor.PredictBatch(vecs)))
		f1s = append(f1s, res.Report.WSF1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := synth.PositiveRate(s.ds.TestImage)
	o.check("auprc-identical", allEqual(auprcs), "test AUPRC over %d jobs: %v", len(auprcs), auprcs)
	o.check("ws_f1-identical", allEqual(f1s), "WS F1 over %d jobs: %v", len(f1s), f1s)
	o.check("auprc-above-base-rate", auprcs[0] > base, "AUPRC %.4f vs base rate %.4f", auprcs[0], base)
	o.add(stat{name: "test_auprc", value: auprcs[0], unit: "score", n: len(auprcs)})
	o.add(stat{name: "ws_f1", value: f1s[0], unit: "score", n: len(f1s)})
	_, err = jr.report(o, e, &setup, "run_s")
	return o, err
}

func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return len(v) > 0
}

// Streamed curation sizes: BenchmarkScaleStream's 100k-entity config.
const (
	streamEntities = 100_000
	streamChunk    = 8192
	streamWindow   = 2000
)

// runStream times Pipeline.CurateStreamed over the disk feature store.
func runStream(e *env) (*outcome, error) {
	o := newOutcome()
	var setup samples
	nText := streamEntities * 3 / 5
	cfg := synth.DatasetConfig{Seed: e.seed, NumText: nText, NumUnlabeledImage: streamEntities - nText,
		NumHandLabelPool: 500, NumTest: 500}
	g, err := setupRepeated(&setup, func() (*org, error) {
		opts := seededOpts(e.seed)
		opts.MaxGraphSeeds, opts.GraphDevNodes = 600, 200
		opts.Mining.NumericQuantiles = 0 // quantile candidate buffers are O(corpus)
		g, err := newOrg(opts)
		if err != nil {
			return nil, err
		}
		// Opening the stream calibrates the task, as every job's would.
		_, err = synth.NewStream(g.world, g.task, cfg)
		return g, err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	chunks := map[string]*samples{}
	var f1s []float64
	rows, lfs := 0, 0
	jr, err := runJobs(e, 2, "bench.curate_streamed", nil, func(ctx context.Context, traced bool) error {
		dir := filepath.Join(e.workdir, fmt.Sprintf("store-%d", len(f1s)))
		last := time.Now()
		hook := func(stage string, chunk int) error {
			e.heap.sample()
			if traced {
				now := time.Now()
				key := chunkStage(stage)
				if chunks[key] == nil {
					chunks[key] = &samples{}
				}
				chunks[key].addDur(now.Sub(last))
				last = now
			}
			return nil
		}
		sc, err := g.pipe.CurateStreamed(ctx, g.world, g.task, cfg, core.StreamOptions{
			Dir: dir, ChunkSize: streamChunk, GraphWindow: streamWindow, ChunkHook: hook,
		})
		if err != nil {
			return err
		}
		f1s = append(f1s, sc.Report.WSF1)
		rows, lfs = sc.Text.Rows()+sc.Image.Rows(), sc.Report.LFCount
		err = sc.Close()
		os.RemoveAll(dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	o.check("rows-committed", rows == streamEntities, "%d rows committed for %d entities", rows, streamEntities)
	o.check("lfs-mined", lfs > 0, "%d LFs", lfs)
	o.check("ws_f1-identical", allEqual(f1s), "WS F1 over %d jobs: %v", len(f1s), f1s)
	o.add(stat{name: "ws_f1", value: f1s[0], unit: "score", n: len(f1s)})
	if _, err := jr.report(o, e, &setup, "stream_s"); err != nil || !e.traced {
		return o, err
	}
	keys := make([]string, 0, len(chunks))
	for k := range chunks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := timing("chunk_ms.p50."+k, "ms", chunks[k])
		o.add(st)
		o.layers[st.name] = st.value
	}
	return o, nil
}

// chunkStage maps a ChunkHook stage tag ("ingest:text", "lf-apply:image",
// "scales:means", "graph", ...) to its layer: ingest, mine, lf_apply,
// scales or graph.
func chunkStage(tag string) string {
	stage, _, _ := strings.Cut(tag, ":")
	return strings.ReplaceAll(stage, "-", "_")
}
