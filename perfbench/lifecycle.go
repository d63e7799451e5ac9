package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"crossmodal/internal/core"
	"crossmodal/internal/featurestore"
	"crossmodal/internal/fusion"
	"crossmodal/internal/lifecycle"
	"crossmodal/internal/metrics"
	"crossmodal/internal/model"
	"crossmodal/internal/serve"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
)

// The drift episode, shaped like cmd/lifecycle's: windows × windowSize
// traffic points, the shifted regime from driftWindow on.
const (
	windows      = 16
	windowSize   = 2000
	driftWindow  = 6
	driftShift   = 2.5
	driftDecay   = 0.35
	retrainScale = 0.2
	evalPoints   = 8000 // final-regime points the final model is scored on
)

// episode is one set-up drift episode: traffic, a server with the
// bootstrap model, and the controller that will run over it.
type episode struct {
	traffic *synth.Traffic
	pipe    *core.Pipeline
	srv     *serve.Server
	hs      *http.Server
	ctrl    *lifecycle.Controller
	dir     string
	tap     *tap
}

func (ep *episode) close() {
	ep.hs.Close()
	ep.srv.Close()
	os.RemoveAll(ep.dir)
}

// newEpisode builds the seed's drifting world, bootstraps and saves a
// model, serves it, and wires a controller whose HTTP client goes through
// the benchmark's tap.
func newEpisode(seed int64, dir string) (*episode, error) {
	opts := seededOpts(seed)
	opts.StreamMining = true
	opts.Workers = 1
	opts.MaxGraphSeeds, opts.GraphDevNodes = 1200, 500
	opts.Graph.MaxCandidates = 120
	opts.Model = model.Config{Epochs: 5, LearningRate: 0.02, Seed: seed, Workers: 1}
	g, err := newOrg(opts)
	if err != nil {
		return nil, err
	}
	sched := synth.DriftSchedule{Seed: seed, Epochs: []synth.Epoch{
		{N: driftWindow * windowSize},
		{N: (windows - driftWindow) * windowSize, TopicShift: driftShift, URLShift: driftShift * 0.75, Decay: driftDecay},
	}}
	traffic, err := synth.NewTraffic(g.world, g.task, sched)
	if err != nil {
		return nil, err
	}
	store, err := featurestore.New(g.lib, 65536)
	if err != nil {
		return nil, err
	}
	dsCfg := synth.DefaultDatasetConfig()
	dsCfg.Seed = seed
	dsCfg.NumText = int(float64(dsCfg.NumText) * retrainScale)
	dsCfg.NumUnlabeledImage = int(float64(dsCfg.NumUnlabeledImage) * retrainScale)
	dsCfg.NumHandLabelPool = int(float64(dsCfg.NumHandLabelPool) * retrainScale)
	dsCfg.NumTest = int(float64(dsCfg.NumTest) * retrainScale)
	ds, err := traffic.FreshDataset(0, dsCfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	cur, err := g.pipe.Curate(ctx, ds)
	if err != nil {
		return nil, err
	}
	incumbent, err := g.pipe.Train(ctx, cur, g.pipe.DefaultTrainSpec())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	bootPath := filepath.Join(dir, "bootstrap.xma")
	if err := fusion.SaveFileLineage(bootPath, incumbent, &fusion.Lineage{Task: g.task.Name, Trigger: "bootstrap", Seed: seed}); err != nil {
		return nil, err
	}
	canary := make([]*synth.Point, 48)
	for i := range canary {
		canary[i] = traffic.Point(1<<30 + i)
	}
	srv, err := serve.New(serve.Config{
		Store: store, World: g.world, Seed: seed, Workers: 1, Timeout: 5 * time.Second,
		PointSource: func(id int, _ synth.Modality, _ int) *synth.Point { return traffic.Point(id) },
	}, canary)
	if err != nil {
		return nil, err
	}
	if _, err := srv.Registry().LoadArtifact(bootPath); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ep := &episode{traffic: traffic, pipe: g.pipe, srv: srv, hs: &http.Server{Handler: srv.Handler()}, dir: dir,
		tap: &tap{base: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
	go ep.hs.Serve(ln)
	ep.ctrl, err = lifecycle.New(lifecycle.Config{
		Traffic: traffic, Store: store, Pipe: g.pipe,
		BaseURL: "http://" + ln.Addr().String(), Client: &http.Client{Transport: ep.tap},
		Incumbent: incumbent, IncumbentPath: bootPath,
		WindowSize: windowSize, Retrain: dsCfg, ArtifactDir: dir, Seed: seed,
		RetrainHook: ep.tap.retrainStarted,
	})
	if err != nil {
		ep.close()
		return nil, err
	}
	return ep, nil
}

// tap is the controller's HTTP transport. It names each call for the
// trace (lifecycle.score, lifecycle.scrape, lifecycle.reload), times each
// adaptation — a retrain through the reload or rejection that ends it — and
// marks it as a lifecycle.adapt span, and times the windows before the
// changepoint: the controller scrapes /metrics once before the first window
// and once at the end of each.
type tap struct {
	base http.RoundTripper

	mu           sync.Mutex
	episodeCtx   context.Context
	firstRetrain time.Time
	adaptStart   time.Time
	adaptSpan    trace.Span
	adaptOpen    bool
	adaptations  samples       // seconds per adaptation
	promoted     time.Duration // first retrain to the return of the promoting reload
	lastScrape   time.Time
	scrapes      int
	windows      samples // seconds per window 1..driftWindow-1
}

func (t *tap) retrainStarted(window, attempt int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.firstRetrain.IsZero() {
		t.firstRetrain = time.Now()
	}
	if !t.adaptOpen {
		t.adaptOpen, t.adaptStart = true, time.Now()
		_, t.adaptSpan = trace.Start(t.episodeCtx, "lifecycle.adapt")
	}
	return nil
}

// endAdapt closes the adaptation interval; promoted reports whether a
// reload just promoted a candidate.
func (t *tap) endAdapt(promoted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.adaptOpen {
		return
	}
	t.adaptOpen = false
	t.adaptSpan.End()
	t.adaptations.addDur(time.Since(t.adaptStart))
	if promoted && t.promoted == 0 {
		t.promoted = time.Since(t.firstRetrain)
	}
}

// scraped ends window scrapes-1. Window 0 only installs the detection
// reference; windows 1 to driftWindow-1 each score, scrape and run the
// drift tests on the same regime under every seed.
func (t *tap) scraped() {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	if w := t.scrapes - 1; w >= 1 && w < driftWindow {
		t.windows.addDur(now.Sub(t.lastScrape))
	}
	t.lastScrape = now
	t.scrapes++
}

func (t *tap) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "lifecycle.scrape"
	switch req.URL.Path {
	case "/predict":
		name = "lifecycle.score"
		// A rejected candidate ends adaptation without a reload.
		t.endAdapt(false)
	case "/admin/reload":
		name = "lifecycle.reload"
	}
	_, sp := trace.Start(req.Context(), name)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.End()
		return nil, err
	}
	// The call ends when the controller has read and closed the body.
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() {
		sp.End()
		switch name {
		case "lifecycle.reload":
			t.endAdapt(resp.StatusCode == http.StatusOK)
		case "lifecycle.scrape":
			t.scraped()
		}
	}}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// runLifecycle runs whole drift episodes, each on a freshly set-up world,
// server and controller.
func runLifecycle(e *env) (*outcome, error) {
	o := newOutcome()
	var setup, adapt samples
	var logs []string
	var ep *episode
	var res *lifecycle.Result
	prep := func() error {
		if ep != nil {
			ep.close()
		}
		start := time.Now()
		var err error
		ep, err = newEpisode(e.seed, filepath.Join(e.workdir, fmt.Sprintf("episode-%d", len(logs))))
		setup.addDur(time.Since(start))
		return err
	}
	var windowTimes, adaptTimes samples
	jr, err := runJobs(e, 2, "bench.episode", prep, func(ctx context.Context, traced bool) error {
		ep.tap.episodeCtx = ctx
		var err error
		if res, err = ep.ctrl.Run(ctx); err != nil {
			return err
		}
		raw, err := json.Marshal(res.Events)
		if err != nil {
			return err
		}
		logs = append(logs, string(raw))
		if ep.tap.promoted > 0 {
			adapt.addDur(ep.tap.promoted)
		}
		if !traced {
			for _, w := range ep.tap.windows.sorted() {
				windowTimes.add(w)
			}
			for _, a := range ep.tap.adaptations.sorted() {
				adaptTimes.add(a)
			}
		}
		return nil
	})
	if err != nil {
		if ep != nil {
			ep.close()
		}
		return nil, err
	}
	defer ep.close()

	early := 0
	for _, ev := range res.Events {
		if ev.Type == lifecycle.EventDrift && ev.Window < driftWindow {
			early++
		}
	}
	o.check("no-drift-before-changepoint", early == 0, "%d drift events before window %d", early, driftWindow)
	o.check("promoted", res.Promotions > 0, "%d promotions, %d detections, %d retrains", res.Promotions, res.Detections, res.Retrains)
	same := true
	for _, l := range logs {
		same = same && l == logs[0]
	}
	o.check("event-log-identical", same, "%d episodes", len(logs))
	for _, ev := range res.Events {
		fmt.Fprintf(e.out, "  event w=%02d %-8s %s %s\n", ev.Window, ev.Type, ev.Channel, ev.Detail)
	}
	quality, err := finalQuality(ep, res)
	if err != nil {
		return nil, err
	}
	o.add(timing("adapt_s", "s", &adapt))
	o.add(stat{name: "final_auprc", value: quality, unit: "score", n: evalPoints})
	set, err := jr.report(o, e, &setup, "episode_s")
	if err != nil {
		return nil, err
	}
	if !e.traced {
		// An episode's length depends on how many retrains its drift
		// draws, one or two. Each adaptation — re-mine, retrain, shadow
		// score, reload or reject — is the same work under every seed, so
		// job_s is its median. The windows' HTTP round trips swing with the
		// host's scheduling far more (up to 23% across ten seeds).
		o.add(timing("window_s", "s", &windowTimes))
		o.add(timing("adaptation_s", "s", &adaptTimes))
		o.e2e["job_s"] = median(adaptTimes.sorted())
		return o, nil
	}
	serveLayers(o, set)
	per := 1 / float64(jr.traced.n())
	o.layers["lifecycle.score_s"] = sumDur(set, "lifecycle.score") * per
	o.layers["lifecycle.predict_calls"] = float64(len(set.named("lifecycle.score"))) * per
	o.layers["lifecycle.reload_s"] = sumDur(set, "lifecycle.reload") * per
	o.layers["lifecycle.scrape_s"] = sumDur(set, "lifecycle.scrape") * per
	o.layers["lifecycle.retrain_s"] = (sumDur(set, "pipeline.curate") + sumDur(set, "train")) * per
	o.layers["lifecycle.shadow_s"] = set.agg("lifecycle.adapt").self * per
	o.layers["lifecycle.detect_s"] = set.agg("bench.episode").self * per
	return o, nil
}

// sumDur is the summed duration (s) of the spans called name.
func sumDur(set *spanSet, name string) float64 {
	var d int64
	for _, s := range set.named(name) {
		d += s.dur()
	}
	return float64(d) / 1e9
}

// finalQuality scores the episode's final serving model on fresh points of
// the final regime.
func finalQuality(ep *episode, res *lifecycle.Result) (float64, error) {
	path := filepath.Join(ep.dir, "bootstrap.xma")
	for _, ev := range res.Events {
		if ev.Type == lifecycle.EventPromote {
			path = filepath.Join(ep.dir, strings.TrimSpace(ev.Detail))
		}
	}
	pred, _, err := fusion.LoadFile(path)
	if err != nil {
		return 0, err
	}
	pts := ep.traffic.Window(1<<29, evalPoints)
	vecs, err := ep.pipe.Featurize(context.Background(), pts)
	if err != nil {
		return 0, err
	}
	return metrics.AUPRC(synth.Labels(pts), pred.PredictBatch(vecs)), nil
}
