package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crossmodal/internal/featurestore"
	"crossmodal/internal/fusion"
	"crossmodal/internal/metrics"
	"crossmodal/internal/model"
	"crossmodal/internal/serve"
	"crossmodal/internal/synth"
	"crossmodal/internal/trace"
	"crossmodal/internal/xrand"
)

// serve-hot traffic shape.
const (
	hotIDs       = 4096 // distinct IDs: fits the featurestore and the point cache's slot count
	pointsPerReq = 8
	burstReqs    = 1024 // closed-loop requests per timed burst
	senders      = 2    // sending goroutines, one connection each
	f32Tol       = 1e-3 // served f32 score vs in-process float64
	sampleIDs    = 256  // IDs re-scored in process
)

// openRates are the open-loop phases' request rates (requests/s): about a
// fifth and three fifths of the closed-loop capacity on a 2-core host.
var openRates = []int{1000, 3000}

// hotServer is a running server over a trained artifact.
type hotServer struct {
	org      *org
	seed     int64
	srv      *serve.Server
	hs       *http.Server
	url      string
	artifact string
	client   *http.Client
	handler  atomic.Pointer[samples] // handler timing target, nil when off
}

func (h *hotServer) close() {
	h.hs.Close()
	h.srv.Close()
	h.client.CloseIdleConnections()
}

// startHotServer trains a small early-fusion model, stamps it for f32
// serving, saves it, and serves it on a loopback port behind a timing
// middleware.
func startHotServer(seed int64, dir string) (*hotServer, error) {
	g, err := newOrg(seededOpts(seed))
	if err != nil {
		return nil, err
	}
	cfg := synth.DefaultDatasetConfig()
	cfg.Seed = seed
	cfg.NumText, cfg.NumUnlabeledImage, cfg.NumHandLabelPool, cfg.NumTest = 2000, 800, 100, 500
	ds, err := synth.BuildDataset(g.world, g.task, cfg)
	if err != nil {
		return nil, err
	}
	res, err := g.pipe.Run(context.Background(), ds)
	if err != nil {
		return nil, err
	}
	em, ok := res.Predictor.(*fusion.EarlyModel)
	if !ok {
		return nil, fmt.Errorf("trained %T, want an early-fusion model", res.Predictor)
	}
	if err := em.SetServePrecision(model.Float32); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "hot.xma")
	if err := fusion.SaveFile(path, em); err != nil {
		return nil, err
	}
	store, err := featurestore.New(g.lib, 65536)
	if err != nil {
		return nil, err
	}
	canary := make([]*synth.Point, 32)
	for i := range canary {
		canary[i] = serve.DerivePoint(g.world, seed, 1<<30+i, synth.Image, 0)
	}
	srv, err := serve.New(serve.Config{
		Store: store, World: g.world, Seed: seed,
		Batcher: serve.BatcherConfig{MaxBatchSize: 64, MaxWait: 2 * time.Millisecond, QueueDepth: 1024},
	}, canary)
	if err != nil {
		return nil, err
	}
	if _, err := srv.Registry().LoadArtifact(path); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := &hotServer{org: g, seed: seed, srv: srv, url: "http://" + ln.Addr().String(), artifact: path,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: senders, MaxConnsPerHost: senders}}}
	inner := srv.Handler()
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := h.handler.Load()
		if s == nil {
			inner.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		inner.ServeHTTP(w, r)
		s.addDur(time.Since(start))
	})}
	go h.hs.Serve(ln)
	return h, nil
}

// predict posts one /predict body and returns its scores; a 429 is errShed.
func (h *hotServer) predict(body []byte, want int) ([]float64, error) {
	resp, err := h.client.Post(h.url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, errShed
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("predict: %d %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var pr struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(raw, &pr); err != nil {
		return nil, err
	}
	if len(pr.Scores) != want {
		return nil, fmt.Errorf("predict: %d scores for %d points", len(pr.Scores), want)
	}
	return pr.Scores, nil
}

// scrape reads the named counters and gauges from /metrics. It calls the
// handler in process, so scrapes take no connection or sending goroutine
// from the load.
func (h *hotServer) scrape(names ...string) map[string]float64 {
	rec := httptest.NewRecorder()
	h.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		for _, n := range names {
			if v, ok := strings.CutPrefix(line, n+" "); ok {
				// A gauge the exposition prints unparsable reads 0.
				out[n], _ = strconv.ParseFloat(v, 64)
			}
		}
	}
	return out
}

// hotTraffic is the seed's request set: hotIDs distinct IDs and request
// bodies of pointsPerReq IDs each drawn from them.
type hotTraffic struct {
	ids    []int
	bodies [][]byte
}

func newHotTraffic(seed int64) *hotTraffic {
	rng := xrand.New(seed ^ 0x5e7e)
	t := &hotTraffic{}
	seen := map[int]bool{}
	for len(t.ids) < hotIDs {
		id := rng.Intn(1 << 24)
		if !seen[id] {
			seen[id] = true
			t.ids = append(t.ids, id)
		}
	}
	for r := 0; r < hotIDs; r++ {
		ids := make([]int, pointsPerReq)
		for j := range ids {
			ids[j] = t.ids[rng.Intn(hotIDs)]
		}
		t.bodies = append(t.bodies, requestBody(ids))
	}
	return t
}

func requestBody(ids []int) []byte {
	var b strings.Builder
	b.WriteString(`{"points":[`)
	for j, id := range ids {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d}`, id)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// warm scores every hot ID once (filling the point cache and featurestore)
// and returns the served score per ID.
func (h *hotServer) warm(t *hotTraffic) (map[int]float64, error) {
	scores := make(map[int]float64, hotIDs)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * pointsPerReq; lo < hotIDs; lo += senders * pointsPerReq {
				ids := t.ids[lo : lo+pointsPerReq]
				got, err := h.predict(requestBody(ids), len(ids))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for j, id := range ids {
					if err == nil {
						scores[id] = got[j]
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return scores, firstErr
}

// runServeHot serves a trained f32 artifact over loopback HTTP to a hot ID
// set: open loop at each of openRates, then closed loop.
func runServeHot(e *env) (*outcome, error) {
	o := newOutcome()
	traffic := newHotTraffic(e.seed)
	var setup samples
	var warmScores map[int]float64
	var h *hotServer
	for i := 0; i < setups; i++ {
		if h != nil {
			h.close()
		}
		start := time.Now()
		var err error
		if h, err = startHotServer(e.seed, e.workdir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if warmScores, err = h.warm(traffic); err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		// Warm the transport, batcher and allocator before timing.
		closedLoop("warmup", 500*time.Millisecond, senders, burstReqs, h.sender(traffic))
		setup.addDur(time.Since(start))
	}
	defer h.close()

	var heap heapPeak
	heap.start()
	var phases []*phase
	var bursts, untracedBursts *samples
	var tr *trace.Tracer
	shedBefore := h.scrape("serve_shed_queue_total", "serve_shed_deadline_total")
	var depth samples
	stopDepth := func() {}
	n := len(openRates) + 1
	if e.traced {
		// Untraced closed-loop baseline for the tracing overhead, then
		// every phase again under the tracer.
		n++
		var p *phase
		p, untracedBursts = closedLoop("closed.untraced", e.budget/time.Duration(n), senders, burstReqs, h.sender(traffic))
		phases = append(phases, p)
		tr = trace.New()
		trace.SetDefault(tr)
		stopDepth = h.sampleDepth(&depth)
	}
	slice := e.budget / time.Duration(n)
	var handlerR1000 samples
	for _, rate := range openRates {
		if e.traced && rate == openRates[0] {
			h.handler.Store(&handlerR1000)
		}
		phases = append(phases, openLoop(fmt.Sprintf("r%d", rate), float64(rate), slice, senders, h.sender(traffic)))
		h.handler.Store(nil)
	}
	var closed *phase
	closed, bursts = closedLoop("closed", slice, senders, burstReqs, h.sender(traffic))
	phases = append(phases, closed)
	stopDepth()
	trace.SetDefault(nil)
	peak := heap.end()
	shedAfter := h.scrape("serve_shed_queue_total", "serve_shed_deadline_total")

	for _, p := range phases {
		o.attempted += int(p.sent.Load())
		o.failed += int(p.shed.Load() + p.failed.Load())
		fmt.Fprintf(e.out, "  phase %-16s sent=%d ok=%d shed=%d failed=%d late_p99_ms=%.3f\n", p.name,
			p.sent.Load(), p.ok.Load(), p.shed.Load(), p.failed.Load(), quantile(p.late.sorted(), 0.99)*1e3)
	}
	o.check("replies-ok", allOK(phases), "every request answered 200 with %d scores", pointsPerReq)
	if err := h.checkInProcess(o, traffic, warmScores); err != nil {
		return nil, err
	}
	labels := make([]int8, hotIDs)
	scores := make([]float64, hotIDs)
	for i, id := range traffic.ids {
		pt := serve.DerivePoint(h.org.world, e.seed, id, synth.Image, 0)
		labels[i], scores[i] = h.org.task.Label(h.org.world, pt.Entity), warmScores[id]
	}
	quality := metrics.AUPRC(labels, scores)

	o.add(timing("setup_s", "s", &setup))
	o.add(stat{name: "hot_auprc", value: quality, unit: "score", n: hotIDs})
	o.add(stat{name: "peak_heap_mb", value: peak, unit: "MB", n: 1})
	o.e2e["setup_s"] = median(setup.sorted())
	o.e2e["peak_heap_mb"] = peak
	open := phases[len(phases)-1-len(openRates) : len(phases)-1]
	for i, p := range open {
		lat := p.latency.sorted()
		o.add(stat{name: fmt.Sprintf("p50_ms.r%d", openRates[i]), value: median(lat) * 1e3, unit: "ms", n: len(lat)})
		o.add(stat{name: fmt.Sprintf("p99_ms.r%d", openRates[i]), value: quantile(lat, 0.99) * 1e3, unit: "ms", n: len(lat)})
	}
	o.add(timing("burst_s", "s", bursts))
	o.add(stat{name: "serve_pps", value: burstReqs * pointsPerReq / median(bursts.sorted()), unit: "1/s", n: bursts.n()})
	if !e.traced {
		// A request is the serving user's job: job_s is its median latency
		// at the lighter open-loop rate. At 3000/s queueing amplifies the
		// host's own speed swings, and closed-loop throughput on a 2-core
		// host swings by more than any bound between runs of one seed.
		o.e2e["job_s"] = median(open[0].latency.sorted())
		return o, nil
	}

	o.add(timing("burst_s.untraced", "s", untracedBursts))
	o.layers["trace.overhead"] = median(bursts.sorted()) / median(untracedBursts.sorted())
	set, err := collect(tr)
	if err != nil {
		return nil, err
	}
	serveLayers(o, set)
	// Requests overlap, so their latencies are no sum of stages; what must
	// add up is each batch span against its self time and children.
	worst := 0.0
	for _, b := range set.named("serve.batch") {
		tree, _ := reconcile(b)
		worst = max(worst, tree)
	}
	o.check("reconcile", worst <= reconcileTol, "worst serve.batch parent/child mismatch %.4f (tolerance %.2f)", worst, reconcileTol)
	o.layers["trace.reconcile_err"] = worst
	r1000 := open[0]
	rtt := median(r1000.rtt.sorted()) * 1e3
	hd := handlerR1000.sorted()
	o.layers["client.rtt_ms.p50"] = rtt
	o.layers["handler_ms.p50"] = median(hd) * 1e3
	o.layers["handler_ms.p99"] = quantile(hd, 0.99) * 1e3
	o.layers["transport_ms.p50"] = rtt - median(hd)*1e3
	o.layers["loadgen.late_ms.p99"] = quantile(open[len(open)-1].late.sorted(), 0.99) * 1e3
	o.layers["serve.shed"] = shedAfter["serve_shed_queue_total"] - shedBefore["serve_shed_queue_total"] +
		shedAfter["serve_shed_deadline_total"] - shedBefore["serve_shed_deadline_total"]
	o.layers["serve.queue_depth.max"] = quantile(depth.sorted(), 1)
	return o, nil
}

func (h *hotServer) sender(t *hotTraffic) sendFunc {
	return func(i int) error {
		_, err := h.predict(t.bodies[i%len(t.bodies)], pointsPerReq)
		return err
	}
}

// sampleDepth polls the admission queue depth from /metrics every 100ms
// until the returned stop is called.
func (h *hotServer) sampleDepth(into *samples) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				into.add(h.scrape("serve_queue_depth")["serve_queue_depth"])
			}
		}
	}()
	return func() { close(quit); <-done }
}

func allOK(phases []*phase) bool {
	for _, p := range phases {
		if p.failed.Load() > 0 || p.shed.Load() > 0 {
			return false
		}
	}
	return true
}

// checkInProcess re-scores a sample of hot IDs in process with the saved
// artifact's float64 path and compares them with the served f32 scores.
func (h *hotServer) checkInProcess(o *outcome, t *hotTraffic, served map[int]float64) error {
	pred, _, err := fusion.LoadFile(h.artifact)
	if err != nil {
		return err
	}
	pts := make([]*synth.Point, sampleIDs)
	for i := range pts {
		pts[i] = serve.DerivePoint(h.org.world, h.seed, t.ids[i], synth.Image, 0)
	}
	vecs, err := h.org.pipe.Featurize(context.Background(), pts)
	if err != nil {
		return err
	}
	worst := 0.0
	for i, s := range pred.PredictBatch(vecs) {
		worst = math.Max(worst, math.Abs(s-served[t.ids[i]]))
	}
	o.check("served-matches-in-process", worst < f32Tol, "max |served - in-process| over %d IDs = %.2g (tolerance %g)", sampleIDs, worst, f32Tol)
	return nil
}

// serveLayers fills the batcher's per-batch self time and fill.
func serveLayers(o *outcome, set *spanSet) {
	b := set.agg("serve.batch")
	if b.calls > 0 {
		o.layers["serve.batch.self_ms"] = b.self * 1e3 / float64(b.calls)
		o.layers["serve.batch.items"] = b.attrs["items"] / float64(b.calls)
	}
	featurestoreLayers(o, set)
}
