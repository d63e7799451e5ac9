package core

import (
	"context"
	"fmt"
	"sort"

	"crossmodal/internal/feature"
	"crossmodal/internal/fusion"
	"crossmodal/internal/labelmodel"
	"crossmodal/internal/labelprop"
	"crossmodal/internal/lf"
	"crossmodal/internal/mapreduce"
	"crossmodal/internal/metrics"
	"crossmodal/internal/mining"
	"crossmodal/internal/model"
	"crossmodal/internal/resource"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
	"crossmodal/internal/xrand"
)

// Pipeline is the cross-modal adaptation pipeline bound to an
// organizational-resource library.
type Pipeline struct {
	lib  *resource.Library
	opts Options
	// lfSchema is the feature space LFs may read: the LF sets, including
	// nonservable features (LFs run offline, §4.1). It is derived once so
	// that a corpus projected into it up front is recognised by pointer.
	lfSchema *feature.Schema
}

// NewPipeline builds a pipeline. Options zero values fall back to defaults.
func NewPipeline(lib *resource.Library, opts Options) (*Pipeline, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if lib == nil {
		return nil, fmt.Errorf("core: nil resource library")
	}
	return &Pipeline{lib: lib, opts: opts, lfSchema: lib.Schema().Sets(opts.LFSets...)}, nil
}

// Options returns the pipeline's resolved options.
func (p *Pipeline) Options() Options { return p.opts }

// Library returns the pipeline's resource library.
func (p *Pipeline) Library() *resource.Library { return p.lib }

// Featurize maps points into the library's common feature space.
func (p *Pipeline) Featurize(ctx context.Context, pts []*synth.Point) ([]*feature.Vector, error) {
	ctx, span := trace.Start(ctx, "featurize")
	defer span.End()
	span.Add("points", int64(len(pts)))
	return p.lib.Featurize(ctx, mapreduce.Config{Workers: p.opts.Workers}, pts)
}

// EndSchema returns the feature schema the discriminative end model trains
// on: the servable features of the configured model sets, plus the
// modality-specific sets when enabled.
func (p *Pipeline) EndSchema() *feature.Schema {
	sets := append([]string{}, p.opts.ModelSets...)
	if p.opts.IncludeModalityFeatures {
		sets = append(sets, resource.ImageSet, resource.TextSet)
	}
	return p.lib.Schema().Sets(sets...).Servable()
}

// graphSchema returns the feature space used for propagation-graph edges:
// the LF features plus the new modality's unstructured features (paper
// §4.4: "we use features specific to the new modality to construct edges,
// including unstructured features such as image embeddings").
func (p *Pipeline) graphSchema() *feature.Schema {
	sets := append(append([]string{}, p.opts.LFSets...), resource.ImageSet)
	return p.lib.Schema().Sets(sets...)
}

// Result is a completed pipeline run.
type Result struct {
	// Predictor is the trained end model over the common feature space.
	Predictor fusion.Predictor
	// Curation carries the weak-supervision outputs and featurized
	// corpora; reuse it with Train to fit further model variants without
	// repeating the curation stages.
	Curation *Curation
	// ProbLabels are the weak-supervision probabilistic labels for the
	// unlabeled new-modality corpus, aligned with Dataset.UnlabeledImage.
	ProbLabels []float64
	// Covered marks which unlabeled points received at least one LF vote
	// (only covered points join end-model training).
	Covered []bool
	// Report carries diagnostics of every stage.
	Report Report
}

// Curation is the output of the feature-generation and training-data
// curation stages (Figure 3 A+B): featurized corpora plus probabilistic
// labels for the new modality. One curation supports training any number of
// end-model variants (different feature sets, modalities, or fusion
// architectures).
type Curation struct {
	Dataset    *synth.Dataset
	TextVecs   []*feature.Vector
	ImageVecs  []*feature.Vector
	TextLabels []int8
	ProbLabels []float64
	Covered    []bool
	Report     Report
}

// Report summarizes a pipeline run's curation stages.
type Report struct {
	Task string
	// Mining summarizes LF generation; LFCount the final LF count
	// (including the propagation LF when enabled).
	Mining  mining.Report
	LFCount int
	// DevStats holds each LF's precision/recall/coverage on the labeled
	// old-modality dev set.
	DevStats []lf.Stats
	// Cuts are the tuned propagation-score thresholds; PropIters the
	// propagation iterations (zero when label propagation is disabled).
	Cuts      labelprop.Cuts
	PropIters int
	// LabelModel is the fitted generative model (nil under majority vote).
	LabelModel *labelmodel.Model
	// WS* report the curated labels' quality against the hidden ground
	// truth of the unlabeled corpus — the paper's Table 3 metrics. These
	// are diagnostics: the pipeline itself never trains on this truth.
	WSPrecision, WSRecall, WSF1, WSCoverage float64
}

// Run executes the full pipeline on a dataset and returns the trained
// predictor plus diagnostics. The unlabeled corpus's hidden labels are used
// only to fill the Report's WS quality fields, never for training.
func (p *Pipeline) Run(ctx context.Context, ds *synth.Dataset) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := trace.Start(ctx, "pipeline.run")
	defer span.End()
	cur, err := p.Curate(ctx, ds)
	if err != nil {
		return nil, err
	}
	predictor, err := p.Train(ctx, cur, p.DefaultTrainSpec())
	if err != nil {
		return nil, err
	}
	return &Result{
		Predictor:  predictor,
		Curation:   cur,
		ProbLabels: cur.ProbLabels,
		Covered:    cur.Covered,
		Report:     cur.Report,
	}, nil
}

// Curate runs feature generation and training-data curation (stages A and B)
// and returns the reusable curation. When the image modality is disabled the
// weak-supervision stages are skipped entirely.
func (p *Pipeline) Curate(ctx context.Context, ds *synth.Dataset) (*Curation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, curSpan := trace.Start(ctx, "pipeline.curate")
	defer curSpan.End()

	// --- Stage A: feature generation (§3) ---
	textVecs, err := p.Featurize(ctx, ds.LabeledText)
	if err != nil {
		return nil, fmt.Errorf("core: featurize text: %w", err)
	}
	imageVecs, err := p.Featurize(ctx, ds.UnlabeledImage)
	if err != nil {
		return nil, fmt.Errorf("core: featurize image: %w", err)
	}
	cur := &Curation{Dataset: ds, TextVecs: textVecs, ImageVecs: imageVecs, TextLabels: synth.Labels(ds.LabeledText)}

	// --- Stage B: training data curation (§4) ---
	text := newMemSource(textVecs, cur.TextLabels, p.lfSchema)
	image := newMemSource(imageVecs, synth.Labels(ds.UnlabeledImage), p.lfSchema)
	cur.ProbLabels, cur.Covered, cur.Report, err = p.curate(ctx, ds.Task.Name, text, image, 0, false)
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// corpusSource is one corpus as the shared curation stages read it: the
// slices Curate featurized (memSource) or a disk feature store
// (storeSource).
type corpusSource interface {
	// labels returns every row's label in row order; for the unlabeled
	// corpus these are the hidden truth, read only for WS diagnostics.
	labels() []int8
	// scan calls fn on the first limit rows (every row when limit <= 0) in
	// row order, one chunk at a time, reprojected into schema. stage tags
	// the chunk for StreamOptions.ChunkHook.
	scan(ctx context.Context, schema *feature.Schema, limit int, stage string, fn func(vecs []*feature.Vector, labels []int8) error) error
	// fetch returns the rows at idx, in idx order, reprojected into schema.
	fetch(ctx context.Context, schema *feature.Schema, idx []int) ([]*feature.Vector, error)
}

// memSource is an in-memory corpus: one chunk, reprojected once per schema
// (the stages read each schema in a run, then move on to the next).
type memSource struct {
	vecs      []*feature.Vector
	rowLabels []int8
	projected *feature.Schema
	proj      []*feature.Vector
}

// newMemSource returns vecs as a source already projected into schema, the
// LF space the stages read first, so that one pass over the corpus happens
// before the stages start.
func newMemSource(vecs []*feature.Vector, labels []int8, schema *feature.Schema) *memSource {
	return &memSource{vecs: vecs, rowLabels: labels, projected: schema, proj: reprojectAll(vecs, schema)}
}

func (s *memSource) labels() []int8 { return s.rowLabels }

func (s *memSource) scan(_ context.Context, schema *feature.Schema, limit int, _ string, fn func([]*feature.Vector, []int8) error) error {
	if s.projected != schema {
		s.projected, s.proj = schema, reprojectAll(s.vecs, schema)
	}
	vecs, labels := s.proj, s.rowLabels
	if limit > 0 && limit < len(vecs) {
		vecs, labels = vecs[:limit], labels[:limit]
	}
	return fn(vecs, labels)
}

func (s *memSource) fetch(_ context.Context, schema *feature.Schema, idx []int) ([]*feature.Vector, error) {
	out := make([]*feature.Vector, len(idx))
	for i, ti := range idx {
		out[i] = s.vecs[ti].Reproject(schema)
	}
	return out, nil
}

// curate runs the weak-supervision stages (§4) that Curate and
// CurateStreamed share over the labeled text corpus and the unlabeled image
// corpus: LF mining, LF application and dedup, label propagation over the
// first graphWindow image rows (0: all), denoising, and the WS quality
// diagnostics. warm re-propagates after every graph delta.
func (p *Pipeline) curate(ctx context.Context, task string, text, image corpusSource, graphWindow int, warm bool) ([]float64, []bool, Report, error) {
	report := Report{Task: task}
	nImages := len(image.labels())
	if !p.opts.UseImage {
		// Text-only configuration: no new-modality corpus to curate.
		return make([]float64, nImages), make([]bool, nImages), report, nil
	}
	textLabels := text.labels()
	lfSchema := p.lfSchema
	mrCfg := mapreduce.Config{Workers: p.opts.Workers}

	lfs, miningReport, err := p.buildLFs(ctx, text, lfSchema)
	if err != nil {
		return nil, nil, report, err
	}

	applyCtx, applySpan := trace.Start(ctx, "lf.apply")
	devMatrix, err := applyLFs(applyCtx, mrCfg, lfs, text, lfSchema, "lf-apply:text")
	if err != nil {
		applySpan.End()
		return nil, nil, report, fmt.Errorf("core: apply LFs to dev: %w", err)
	}
	// Drop LFs that near-duplicate a better LF on the dev set: distinct
	// services often observe the same latent attribute, and duplicated
	// votes break the generative model's independence assumption.
	mined := len(lfs)
	if !p.opts.DisableLFDedup {
		lfs, devMatrix = dedupeLFs(lfs, devMatrix, textLabels)
	}
	applySpan.Add("lfs_kept", int64(len(lfs)))
	applySpan.Add("lfs_rejected", int64(mined-len(lfs)))
	matrix, err := applyLFs(applyCtx, mrCfg, lfs, image, lfSchema, "lf-apply:image")
	applySpan.End()
	if err != nil {
		return nil, nil, report, fmt.Errorf("core: apply LFs: %w", err)
	}

	report.Mining = miningReport
	report.DevStats = lf.EvaluateAll(devMatrix, textLabels)

	if p.opts.UseLabelProp {
		lpCtx, lpSpan := trace.Start(ctx, "labelprop")
		cuts, iters, err := p.propagateGraph(lpCtx, text, image, graphWindow, warm, matrix, devMatrix)
		lpSpan.End()
		if err != nil {
			return nil, nil, report, err
		}
		report.Cuts, report.PropIters = cuts, iters
	}
	report.LFCount = matrix.NumLFs()

	lmCtx, lmSpan := trace.Start(ctx, "labelmodel")
	probs, covered, lm, err := p.denoise(lmCtx, matrix, devMatrix, textLabels)
	lmSpan.End()
	if err != nil {
		return nil, nil, report, err
	}
	report.LabelModel = lm
	report.WSCoverage = coverageRate(covered)
	report.WSPrecision, report.WSRecall, report.WSF1 = wsQuality(probs, covered, image.labels(), metrics.BaseRate(textLabels))
	return probs, covered, report, nil
}

// applyLFs applies LFs to a corpus chunk by chunk, concatenating the
// per-chunk vote matrices — identical to one lf.Apply over the whole corpus
// because votes are per-point.
func applyLFs(ctx context.Context, mrCfg mapreduce.Config, lfs []*lf.LF, src corpusSource, schema *feature.Schema, stage string) (*lf.Matrix, error) {
	var matrix *lf.Matrix
	err := src.scan(ctx, schema, 0, stage, func(vecs []*feature.Vector, _ []int8) error {
		m, err := lf.Apply(ctx, mrCfg, lfs, vecs)
		if err != nil {
			return err
		}
		if matrix == nil {
			matrix = m
		} else {
			matrix.Votes = append(matrix.Votes, m.Votes...)
		}
		return nil
	})
	return matrix, err
}

// dedupeLFs greedily keeps LFs in descending dev-quality order, dropping
// any whose non-abstain votes agree with an already kept LF on >= 95% of
// their overlap (with overlap covering >= 60% of the smaller LF's votes).
func dedupeLFs(lfs []*lf.LF, devMatrix *lf.Matrix, devLabels []int8) ([]*lf.LF, *lf.Matrix) {
	stats := lf.EvaluateAll(devMatrix, devLabels)
	order := make([]int, len(lfs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		qa := stats[order[a]].Precision * stats[order[a]].Recall
		qb := stats[order[b]].Precision * stats[order[b]].Recall
		if qa != qb {
			return qa > qb
		}
		return lfs[order[a]].Name < lfs[order[b]].Name
	})
	cols := make([][]int8, len(lfs))
	for j := range lfs {
		cols[j] = devMatrix.Column(j)
	}
	var keptIdx []int
	for _, j := range order {
		dup := false
		for _, k := range keptIdx {
			var agree, overlap, votesJ, votesK int
			for i := range cols[j] {
				vj, vk := cols[j][i], cols[k][i]
				if vj != 0 {
					votesJ++
				}
				if vk != 0 {
					votesK++
				}
				if vj != 0 && vk != 0 {
					overlap++
					if vj == vk {
						agree++
					}
				}
			}
			smaller := votesJ
			if votesK < smaller {
				smaller = votesK
			}
			if smaller > 0 && overlap >= smaller*3/5 && float64(agree) >= 0.95*float64(overlap) {
				dup = true
				break
			}
		}
		if !dup {
			keptIdx = append(keptIdx, j)
		}
	}
	sort.Ints(keptIdx)
	if len(keptIdx) == len(lfs) {
		return lfs, devMatrix
	}
	kept := make([]*lf.LF, len(keptIdx))
	names := make([]string, len(keptIdx))
	votes := make([][]int8, devMatrix.NumPoints())
	for i := range votes {
		row := make([]int8, len(keptIdx))
		for c, j := range keptIdx {
			row[c] = devMatrix.Votes[i][j]
		}
		votes[i] = row
	}
	for c, j := range keptIdx {
		kept[c] = lfs[j]
		names[c] = lfs[j].Name
	}
	return kept, &lf.Matrix{Votes: votes, Names: names}
}

func reprojectAll(vecs []*feature.Vector, schema *feature.Schema) []*feature.Vector {
	out := make([]*feature.Vector, len(vecs))
	for i, v := range vecs {
		out[i] = v.Reproject(schema)
	}
	return out
}

// devCorpus presents the labeled corpus, reprojected into the LF schema, to
// mining.MineStream; mining.Mine is its single-chunk case.
type devCorpus struct {
	src    corpusSource
	schema *feature.Schema
}

func (c devCorpus) Schema() *feature.Schema { return c.schema }

func (c devCorpus) Scan(ctx context.Context, fn func([]*feature.Vector, []int8) error) error {
	return c.src.scan(ctx, c.schema, 0, "mine", fn)
}

// buildLFs generates labeling functions from the labeled old-modality corpus
// per the configured source.
func (p *Pipeline) buildLFs(ctx context.Context, dev corpusSource, schema *feature.Schema) ([]*lf.LF, mining.Report, error) {
	corpus := devCorpus{src: dev, schema: schema}
	switch p.opts.LFSource {
	case ExpertLFs:
		var vecs []*feature.Vector
		if err := corpus.Scan(ctx, func(chunk []*feature.Vector, _ []int8) error {
			vecs = append(vecs, chunk...)
			return nil
		}); err != nil {
			return nil, mining.Report{}, fmt.Errorf("core: expert LFs: %w", err)
		}
		expert := lf.DefaultExpert()
		rng := xrand.New(p.opts.Seed ^ 0xe4be27)
		lfs, err := expert.Develop(vecs, dev.labels(), rng)
		if err != nil {
			return nil, mining.Report{}, fmt.Errorf("core: expert LFs: %w", err)
		}
		return lfs, mining.Report{}, nil
	default:
		lfs, rep, err := mining.MineStream(ctx, mapreduce.Config{Workers: p.opts.Workers}, p.opts.Mining, corpus)
		if err != nil {
			return nil, rep, fmt.Errorf("core: mine LFs: %w", err)
		}
		return lfs, rep, nil
	}
}

// graphSplit deterministically splits the labeled corpus into the text rows
// that join the propagation graph: the first nSeeds are seeds, the rest are
// held out, unseeded, to tune the score cuts.
func (p *Pipeline) graphSplit(nText int) (textIdx []int, nSeeds int, err error) {
	rng := xrand.New(p.opts.Seed ^ 0x9a6b)
	perm := rng.Perm(nText)
	nSeeds = min(p.opts.MaxGraphSeeds, len(perm))
	nDev := min(p.opts.GraphDevNodes, len(perm)-nSeeds)
	if nDev == 0 && len(perm) >= 8 {
		// Small corpus: split three quarters seeds, one quarter dev.
		nSeeds = len(perm) * 3 / 4
		nDev = len(perm) - nSeeds
	}
	if nSeeds == 0 || nDev == 0 {
		return nil, 0, fmt.Errorf("core: labeled corpus too small for propagation (%d points)", nText)
	}
	return perm[:nSeeds+nDev], nSeeds, nil
}

// tunePropCuts turns held-out propagation scores into vote thresholds.
// clampScores are the unlabeled-corpus scores bounding the negative cut to
// the clearly negative tail (the paper's "large volumes of negative
// examples"): a blanket negative vote near the prior would crush borderline
// positives.
func (p *Pipeline) tunePropCuts(devScores []float64, devLabels []int8, base float64, clampScores []float64) (labelprop.Cuts, error) {
	posTarget := p.opts.PosCutLift * base
	if posTarget < 0.03 {
		posTarget = 0.03
	}
	if posTarget > 0.8 {
		posTarget = 0.8
	}
	// The negative cut must deplete positives below the base rate, not
	// merely match the (already high) negative prior.
	negTarget := 1 - base/3
	if negTarget < p.opts.NegCutPrecision {
		negTarget = p.opts.NegCutPrecision
	}
	cuts, err := labelprop.ChooseCuts(devScores, devLabels, posTarget, negTarget)
	if err != nil {
		return labelprop.Cuts{}, fmt.Errorf("core: choose cuts: %w", err)
	}
	sorted := append([]float64(nil), clampScores...)
	sort.Float64s(sorted)
	if q := sorted[len(sorted)/4]; cuts.Neg > q {
		cuts.Neg = q
	}
	return cuts, nil
}

// appendPropLF appends the propagation score LF to the image matrix and
// mirrors it onto the labeled dev matrix (scores of the held-out, unseeded
// text nodes) so the dev-anchored label model can estimate its reliability
// like any other LF. Dev rows outside the held-out sample abstain.
func appendPropLF(matrix, devMatrix *lf.Matrix, cuts labelprop.Cuts, imageScores []float64, imagePresent []bool, devIdx []int, devScores []float64, devReached []bool) error {
	scoreLF := &lf.ScoreLF{
		Name:    "labelprop",
		Source:  "labelprop",
		Scores:  imageScores,
		Present: imagePresent,
		PosCut:  cuts.Pos,
		NegCut:  cuts.Neg,
	}
	if err := matrix.AppendScoreLF(scoreLF); err != nil {
		return fmt.Errorf("core: append propagation LF: %w", err)
	}
	devVotes := &lf.ScoreLF{
		Name:    "labelprop",
		Source:  "labelprop",
		Scores:  make([]float64, devMatrix.NumPoints()),
		Present: make([]bool, devMatrix.NumPoints()),
		PosCut:  cuts.Pos,
		NegCut:  cuts.Neg,
	}
	for i, ti := range devIdx {
		devVotes.Scores[ti] = devScores[i]
		devVotes.Present[ti] = devReached[i]
	}
	if err := devMatrix.AppendScoreLF(devVotes); err != nil {
		return fmt.Errorf("core: append dev propagation LF: %w", err)
	}
	return nil
}

// propagateGraph runs label propagation (§4.4) from labeled text seeds
// through the common-feature graph to the first window image rows (0: all),
// tunes vote cuts on held-out text, and appends the resulting score LF to
// both vote matrices; image rows past the window abstain. Scales are fitted
// with the two-pass accumulator and the graph grows by one Builder delta per
// image chunk, the text nodes joining the first: node order is seeds, dev,
// images, and both are bit-identical to FitScales and BuildGraph over the
// assembled nodes, so an in-memory corpus and any chunking of a store yield
// the same scores.
func (p *Pipeline) propagateGraph(ctx context.Context, text, image corpusSource, window int, warm bool, matrix, devMatrix *lf.Matrix) (labelprop.Cuts, int, error) {
	gSchema := p.graphSchema()
	textLabels := text.labels()
	nImages := len(image.labels())
	textIdx, nSeeds, err := p.graphSplit(len(textLabels))
	if err != nil {
		return labelprop.Cuts{}, 0, err
	}
	seedIdx, devIdx := textIdx[:nSeeds], textIdx[nSeeds:]
	if window <= 0 || window > nImages {
		window = nImages
	}
	textNodes, err := text.fetch(ctx, gSchema, textIdx)
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: fetch graph seeds: %w", err)
	}

	seeds := make(map[int]float64, nSeeds)
	var posSeeds float64
	for i, ti := range seedIdx {
		if textLabels[ti] > 0 {
			seeds[i] = 1
			posSeeds++
		} else {
			seeds[i] = 0
		}
	}

	acc := feature.NewScalesAccum(gSchema)
	acc.AddMeans(textNodes)
	if err := image.scan(ctx, gSchema, window, "scales:means", func(vecs []*feature.Vector, _ []int8) error {
		acc.AddMeans(vecs)
		return nil
	}); err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: fit scales: %w", err)
	}
	acc.FinishMeans()
	acc.AddDevs(textNodes)
	if err := image.scan(ctx, gSchema, window, "scales:devs", func(vecs []*feature.Vector, _ []int8) error {
		acc.AddDevs(vecs)
		return nil
	}); err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: fit scales: %w", err)
	}
	scales := acc.Scales()

	gcfg := p.opts.Graph
	gcfg.Seed = p.opts.Seed ^ 0x6a7f
	gcfg.Workers = p.opts.Workers
	if gcfg.Weights == nil && !p.opts.UniformGraphWeights {
		// Learn per-feature edge weights from the seeded labeled nodes so
		// discriminative features dominate the graph.
		seedLabels := make([]int8, nSeeds)
		for i, ti := range seedIdx {
			seedLabels[i] = textLabels[ti]
		}
		if weights, werr := FitGraphWeights(textNodes[:nSeeds], seedLabels, scales, 20000, p.opts.Seed^0x77); werr == nil {
			gcfg.Weights = weights
		}
	}

	prior := posSeeds / float64(nSeeds)
	pcfg := p.opts.Prop
	pcfg.Prior = prior
	gctx, gSpan := trace.Start(ctx, "labelprop.build_graph")
	b, err := labelprop.NewBuilder(gSchema, gcfg, scales)
	if err != nil {
		gSpan.End()
		return labelprop.Cuts{}, 0, fmt.Errorf("core: build graph: %w", err)
	}
	var res *labelprop.Result
	pending := textNodes
	err = image.scan(gctx, gSchema, window, "graph", func(vecs []*feature.Vector, _ []int8) error {
		if pending != nil {
			vecs, pending = append(pending, vecs...), nil
		}
		if err := b.ApplyDelta(gctx, vecs); err != nil {
			return err
		}
		if warm {
			var prev []float64
			if res != nil {
				prev = res.Scores
			}
			next, err := labelprop.PropagateWarm(gctx, b.Graph(), seeds, pcfg, prev)
			if err != nil {
				return err
			}
			res = next
		}
		return nil
	})
	if err == nil {
		err = b.ApplyDelta(gctx, pending) // no image rows in the window
	}
	gSpan.SetInt("vertices", int64(b.NumVertices()))
	gSpan.SetInt("edges", int64(b.Graph().NumEdges()))
	gSpan.End()
	if err != nil {
		return labelprop.Cuts{}, 0, fmt.Errorf("core: build graph: %w", err)
	}
	if res == nil {
		res, err = labelprop.Propagate(ctx, b.Graph(), seeds, pcfg)
		if err != nil {
			return labelprop.Cuts{}, 0, fmt.Errorf("core: propagate: %w", err)
		}
	}

	imageStart := len(textIdx)
	devScores := res.Scores[nSeeds:imageStart]
	devLabels := make([]int8, len(devIdx))
	for i, ti := range devIdx {
		devLabels[i] = textLabels[ti]
	}
	cuts, err := p.tunePropCuts(devScores, devLabels, prior, res.Scores[imageStart:])
	if err != nil {
		return labelprop.Cuts{}, 0, err
	}
	imageScores := make([]float64, nImages)
	imagePresent := make([]bool, nImages)
	copy(imageScores, res.Scores[imageStart:])
	copy(imagePresent, res.Reached[imageStart:])
	if err := appendPropLF(matrix, devMatrix, cuts, imageScores, imagePresent,
		devIdx, devScores, res.Reached[nSeeds:imageStart]); err != nil {
		return labelprop.Cuts{}, 0, err
	}
	return cuts, res.Iters, nil
}

// denoise converts the vote matrix into probabilistic labels via the
// dev-anchored label model (or majority vote). Each LF's class-conditional
// reliability is estimated on the labeled old-modality dev matrix (§4.2),
// then applied to the new modality's votes.
func (p *Pipeline) denoise(ctx context.Context, matrix, devMatrix *lf.Matrix, textLabels []int8) ([]float64, []bool, *labelmodel.Model, error) {
	covered := labelmodel.Covered(matrix)
	if !p.opts.UseGenerative {
		return labelmodel.MajorityVote(matrix), covered, nil, nil
	}
	lmCfg := p.opts.LabelModel
	if lmCfg.ClassBalance <= 0 {
		lmCfg.ClassBalance = metrics.BaseRate(textLabels)
	}
	var lm *labelmodel.Model
	var err error
	if p.opts.UseEMLabelModel {
		lm, err = labelmodel.FitGenerative(ctx, matrix, lmCfg)
	} else {
		lm, err = labelmodel.FitSupervised(ctx, devMatrix, textLabels, lmCfg)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: fit label model: %w", err)
	}
	probs, err := lm.Predict(matrix)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: label model predict: %w", err)
	}
	return probs, covered, lm, nil
}

// TrainSpec selects one end-model variant to train from a curation.
type TrainSpec struct {
	// ModelSets are the organizational service sets available to the
	// model (servable features only).
	ModelSets []string
	// IncludeModalityFeatures adds the image- and text-specific sets.
	IncludeModalityFeatures bool
	// UseText / UseImage select the training corpora.
	UseText, UseImage bool
	// Fusion selects the architecture.
	Fusion FusionKind
	// Model configures the network.
	Model model.Config
	// Schema, when non-nil, overrides the schema composed from ModelSets
	// (e.g. the embedding-only baseline schema).
	Schema *feature.Schema
	// Extra appends additional training corpora (e.g. hand-reviewed
	// points from an active-learning loop) alongside the curation's.
	Extra []fusion.Corpus
}

// DefaultTrainSpec returns the spec implied by the pipeline options.
func (p *Pipeline) DefaultTrainSpec() TrainSpec {
	return TrainSpec{
		ModelSets:               p.opts.ModelSets,
		IncludeModalityFeatures: p.opts.IncludeModalityFeatures,
		UseText:                 p.opts.UseText,
		UseImage:                p.opts.UseImage,
		Fusion:                  p.opts.Fusion,
		Model:                   p.opts.Model,
	}
}

// modelConfig defaults the model's Workers knob from the pipeline options
// when the caller left it unset, so one -workers flag steers every stage.
func (p *Pipeline) modelConfig(mcfg model.Config) model.Config {
	if mcfg.Workers == 0 {
		mcfg.Workers = p.opts.Workers
	}
	return mcfg
}

// Train fits one end-model variant (stage C, §5) from a curation.
func (p *Pipeline) Train(ctx context.Context, cur *Curation, spec TrainSpec) (fusion.Predictor, error) {
	if !spec.UseText && !spec.UseImage {
		return nil, fmt.Errorf("core: train spec enables no modality")
	}
	ctx, span := trace.Start(ctx, "train")
	defer span.End()
	span.SetStr("fusion", string(spec.Fusion))
	schema := spec.Schema
	if schema == nil {
		schema = p.SchemaFor(spec.ModelSets, spec.IncludeModalityFeatures, spec.IncludeModalityFeatures)
	}
	cfg := fusion.Config{Schema: schema, Model: p.modelConfig(spec.Model), MaxVocab: p.opts.MaxVocab}
	var corpora []fusion.Corpus
	var textCorpus, imageCorpus fusion.Corpus
	if spec.UseText {
		targets := make([]float64, len(cur.TextLabels))
		for i, l := range cur.TextLabels {
			if l > 0 {
				targets[i] = 1
			}
		}
		textCorpus = fusion.Corpus{Name: "text", Vectors: cur.TextVecs, Targets: targets}
		corpora = append(corpora, textCorpus)
	}
	if spec.UseImage {
		var vecs []*feature.Vector
		var targets []float64
		for i, v := range cur.ImageVecs {
			if cur.Covered[i] {
				vecs = append(vecs, v)
				targets = append(targets, cur.ProbLabels[i])
			}
		}
		if len(vecs) == 0 {
			return nil, fmt.Errorf("core: weak supervision covered no image points")
		}
		imageCorpus = fusion.Corpus{Name: "image", Vectors: vecs, Targets: targets}
		corpora = append(corpora, imageCorpus)
	}
	corpora = append(corpora, spec.Extra...)
	switch spec.Fusion {
	case IntermediateFusion:
		return fusion.TrainIntermediate(ctx, corpora, cfg)
	case DeViSE:
		if !spec.UseText || !spec.UseImage {
			return nil, fmt.Errorf("core: DeViSE needs both modalities")
		}
		return fusion.TrainDeViSE(ctx, []fusion.Corpus{textCorpus}, imageCorpus, cfg)
	default:
		return fusion.TrainEarly(ctx, corpora, cfg)
	}
}

func coverageRate(covered []bool) float64 {
	if len(covered) == 0 {
		return 0
	}
	n := 0
	for _, c := range covered {
		if c {
			n++
		}
	}
	return float64(n) / float64(len(covered))
}

// wsQuality measures the curated labels against the hidden ground truth of
// the unlabeled corpus (diagnostics only; paper Table 3 metrics). The
// decision cut is prior-relative — min(0.5, 5 × class balance) — because in
// heavily imbalanced tasks a well-calibrated posterior rarely crosses 0.5
// even for clear positives, yet a posterior several times the prior is a
// confident positive call.
func wsQuality(probs []float64, covered []bool, labels []int8, prior float64) (precision, recall, f1 float64) {
	cut := 0.5
	if rel := 5 * prior; rel < cut && rel > 0 {
		cut = rel
	}
	var c metrics.Confusion
	for i, label := range labels {
		if !covered[i] {
			// Uncovered points count as missed positives for recall.
			if label > 0 {
				c.FN++
			} else {
				c.TN++
			}
			continue
		}
		pred := int8(-1)
		if probs[i] >= cut {
			pred = 1
		}
		c.Add(label, pred)
	}
	return c.Precision(), c.Recall(), c.F1()
}
