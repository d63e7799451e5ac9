package crossmodal_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"crossmodal/internal/trace"
)

// requiredStages are the pipeline stages the trace must cover (the issue's
// acceptance bar): every phase of the adaptation loop shows up as a named
// span in the exported stage tree.
var requiredStages = []string{"featurize", "mining", "labelprop", "labelmodel", "train", "eval"}

// curationStages are the weak-supervision spans the shared curation stages
// open, whichever corpus source (in-memory slices or the disk store) they
// read.
var curationStages = []string{"mining", "lf.apply", "labelprop", "labelprop.build_graph",
	"labelprop.apply_delta", "labelprop.propagate", "labelmodel"}

// requireSpans fails the test for each name the tracer did not record.
func requireSpans(t *testing.T, tr *trace.Tracer, run string, want []string) {
	t.Helper()
	names := make(map[string]bool)
	for _, n := range tr.SpanNames() {
		names[n] = true
	}
	for _, stage := range want {
		if !names[stage] {
			t.Errorf("%s trace missing span %q (have %v)", run, stage, tr.SpanNames())
		}
	}
}

// TestGoldenPipelineTraced re-runs the golden pipeline with tracing ENABLED
// and requires bit-identical results: instrumentation must never consume RNG
// draws, reorder work, or otherwise perturb the computation. It then checks
// the captured trace itself — stage coverage, Chrome trace_event validity,
// and the human-readable summary. The streamed golden run is traced the same
// way: both curation paths must open the same stage spans.
func TestGoldenPipelineTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	if trace.Enabled() {
		t.Fatal("tracer already installed; tests must not leak the process default")
	}
	tr := trace.New()
	trace.SetDefault(tr)
	defer trace.SetDefault(nil)

	got := runGoldenPipeline(t, context.Background())
	compareGolden(t, got)

	// Stage coverage: every adaptation phase appears as a span.
	requireSpans(t, tr, "in-memory", requiredStages)
	requireSpans(t, tr, "in-memory", curationStages)

	// The exported Chrome trace must be valid trace_event JSON with complete
	// events carrying the fields chrome://tracing and Perfetto require.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	eventNames := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			eventNames[ev.Name] = true
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Errorf("event %q has negative timing: ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
			}
		}
	}
	for _, stage := range requiredStages {
		if !eventNames[stage] {
			t.Errorf("chrome trace missing complete event for stage %q", stage)
		}
	}

	// The summary tree should mention every stage too.
	buf.Reset()
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	summary := buf.String()
	for _, stage := range requiredStages {
		if !strings.Contains(summary, stage) {
			t.Errorf("summary missing stage %q:\n%s", stage, summary)
		}
	}

	streamed := trace.New()
	trace.SetDefault(streamed)
	compareGolden(t, runGoldenPipelineStreamed(t, context.Background(), t.TempDir(), 256))
	requireSpans(t, streamed, "streamed", curationStages)
}
