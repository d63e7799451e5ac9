package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crossmodal/internal/synth"
)

// metricName is the grammar every reported metric and workload name
// follows.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, metricName)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit || g.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestSeedChangesInputsNotNames: another seed draws other inputs, and a
// run reports the same metric names.
func TestSeedChangesInputsNotNames(t *testing.T) {
	a, b := newHotTraffic(1), newHotTraffic(2)
	if reflect.DeepEqual(a.ids, b.ids) || bytes.Equal(a.bodies[0], b.bodies[0]) {
		t.Error("serve-hot traffic is the same under seeds 1 and 2")
	}
	if !reflect.DeepEqual(a.ids, newHotTraffic(1).ids) {
		t.Error("serve-hot traffic differs between two draws of seed 1")
	}
	g1, err := newOrg(seededOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := newOrg(seededOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := synth.DatasetConfig{NumText: 50, NumUnlabeledImage: 20, NumHandLabelPool: 5, NumTest: 20}
	cfg.Seed = 1
	d1, err := synth.BuildDataset(g1.world, g1.task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	d2, err := synth.BuildDataset(g2.world, g2.task, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(d1.LabeledText[0].Entity, d2.LabeledText[0].Entity) {
		t.Error("curation datasets agree under seeds 1 and 2")
	}

	if testing.Short() {
		t.Skip("runs the serve-hot workload twice")
	}
	names := func(seed int) []string {
		var out bytes.Buffer
		args := []string{"-workload", "serve-hot", "-seed", fmt.Sprint(seed), "-seconds", "1", "-workdir", t.TempDir()}
		if code := run(args, &out, os.Stderr); code != 0 {
			t.Fatalf("seed %d: exit %d\n%s", seed, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct bool
			Metrics map[string]json.RawMessage
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("seed %d: checks failed\n%s", seed, out.String())
		}
		var keys []string
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	if n1, n2 := names(1), names(2); !reflect.DeepEqual(n1, n2) {
		t.Errorf("metric names differ across seeds: %v vs %v", n1, n2)
	}
}

// chromeDoc renders spans as the tracer's Chrome export would.
func chromeDoc(spans ...[4]any) []byte {
	var evs []string
	for _, s := range spans {
		evs = append(evs, fmt.Sprintf(`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%v,"dur":%v}`, s[0], s[1], s[2], s[3]))
	}
	return []byte(`{"traceEvents":[` + strings.Join(evs, ",") + `]}`)
}

func TestSelfTime(t *testing.T) {
	// Lane 1: job [0,1000µs) with children a [100,400) and b [500,900);
	// a has child c [200,300). Lane 2: a concurrent root d.
	set, err := parseChrome(chromeDoc(
		[4]any{"job", 1, 0, 1000},
		[4]any{"a", 1, 100, 300},
		[4]any{"c", 1, 200, 100},
		[4]any{"b", 1, 500, 400},
		[4]any{"d", 2, 50, 2000},
	))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"job": 300e3, "a": 200e3, "c": 100e3, "b": 400e3, "d": 2000e3}
	for _, s := range set.all {
		if got := s.self(); got != want[s.name] {
			t.Errorf("self(%s) = %d ns, want %d", s.name, got, want[s.name])
		}
	}
	if len(set.roots) != 2 {
		t.Fatalf("%d roots, want 2", len(set.roots))
	}
	job := set.named("job")[0]
	worst, sum := reconcile(job)
	if worst > 0 || math.Abs(sum-1e-3) > 1e-12 {
		t.Errorf("reconcile(job) = %v, %v; want 0, 0.001", worst, sum)
	}
	if a := set.agg("a", "c"); math.Abs(a.self-300e-6) > 1e-12 || a.calls != 2 {
		t.Errorf("agg(a, c) = %+v", a)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Two children overlap by 100µs: self counts the covered union once,
	// and reconcile reports the overlap as a 10% mismatch.
	p := &span{name: "p", start: 0, end: 1000e3}
	for _, c := range []*span{{name: "x", start: 100e3, end: 500e3}, {name: "y", start: 400e3, end: 800e3}} {
		c.parent = p
		p.children = append(p.children, c)
	}
	if got := p.self(); got != 300e3 {
		t.Errorf("self = %d, want 300000", got)
	}
	worst, _ := reconcile(p)
	if want := (100e3 - 2*slack) / 1000e3; worst != want {
		t.Errorf("worst = %v, want %v", worst, want)
	}
}

// TestOpenLoopLateness runs the open-loop generator against a server
// whose tenth request stalls for 60ms: the schedule keeps its pace, the
// requests due during the stall are sent late, and their latency counts
// from when they were due.
func TestOpenLoopLateness(t *testing.T) {
	var n atomic.Int64
	stall := 60 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 10 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	send := func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			return errShed
		}
		return nil
	}
	const rate, d = 500.0, 400 * time.Millisecond
	p := openLoop("test", rate, d, 1, send)
	if got, want := p.sent.Load(), int64(rate*d.Seconds()); got != want {
		t.Errorf("sent %d requests, want the schedule's %d", got, want)
	}
	if p.ok.Load() != p.sent.Load() || p.failed.Load() != 0 || p.shed.Load() != 0 {
		t.Errorf("ok=%d failed=%d shed=%d of %d", p.ok.Load(), p.failed.Load(), p.shed.Load(), p.sent.Load())
	}
	late := p.late.sorted()
	// The stall delays every request due in the next 60ms (30 at 500/s).
	if q := quantile(late, 1); q < 0.05 {
		t.Errorf("max lateness %v, want >= 50ms after a 60ms stall", q)
	}
	if lateCount := countAbove(late, 0.01); lateCount < 20 {
		t.Errorf("%d requests more than 10ms late, want >= 20", lateCount)
	}
	lat, rtt := p.latency.sorted(), p.rtt.sorted()
	if quantile(lat, 1) < 0.05 {
		t.Errorf("max latency from due time %v, want >= 50ms", quantile(lat, 1))
	}
	// Latency from the due time exceeds the round trip for the queued
	// requests: the round trip alone hides the stall from all but one.
	if countAbove(lat, 0.01) <= countAbove(rtt, 0.01) {
		t.Errorf("latency from due time hides the stall: %d vs %d rtt samples above 10ms",
			countAbove(lat, 0.01), countAbove(rtt, 0.01))
	}
}

func TestClosedLoopBursts(t *testing.T) {
	p, bursts := closedLoop("test", 100*time.Millisecond, 2, 10, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if got, want := bursts.n(), int(p.ok.Load()/10); got != want {
		t.Errorf("%d bursts for %d requests, want %d", got, p.ok.Load(), want)
	}
}

func countAbove(sorted []float64, x float64) int {
	n := 0
	for _, v := range sorted {
		if v > x {
			n++
		}
	}
	return n
}

func TestTail(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{{5, 0, false}, {99, 0, false}, {100, 0.9, true}, {1000, 0.99, true}, {10000, 0.999, true}} {
		q, ok := tail(c.n)
		if q != c.q || ok != c.ok {
			t.Errorf("tail(%d) = %v, %v; want %v, %v", c.n, q, ok, c.q, c.ok)
		}
	}
}
