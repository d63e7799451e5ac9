package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"crossmodal/internal/trace"
)

// span is one recorded interval, rebuilt from the tracer's Chrome export.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	name       string
	tid        int
	start, end int64
	args       map[string]float64
	parent     *span
	children   []*span
}

func (s *span) dur() int64 { return s.end - s.start }

// self is the span's duration minus the part of it its children cover.
func (s *span) self() int64 {
	iv := make([][2]int64, 0, len(s.children))
	for _, c := range s.children {
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	return s.dur() - coverage(iv)
}

// coverage is the total length of the union of the intervals.
func coverage(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanSet is a forest of spans.
type spanSet struct {
	all   []*span
	roots []*span
}

// collect exports t and rebuilds its span forest.
func collect(t *trace.Tracer) (*spanSet, error) {
	var buf bytes.Buffer
	if err := t.WriteChromeTrace(&buf); err != nil {
		return nil, fmt.Errorf("export trace: %w", err)
	}
	return parseChrome(buf.Bytes())
}

// parseChrome rebuilds parentage from a Chrome trace_event export. The
// export has no parent ids, but the tracer puts a child on its parent's
// lane (tid) and gives overlapping root spans distinct lanes, so on one
// lane a span's parent is the innermost earlier span that contains it.
func parseChrome(raw []byte) (*spanSet, error) {
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Tid  int                    `json:"tid"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	set := &spanSet{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s := &span{name: ev.Name, tid: ev.Tid, args: map[string]float64{},
			start: int64(math.Round(ev.Ts * 1e3))}
		s.end = s.start + int64(math.Round(ev.Dur*1e3))
		for k, v := range ev.Args {
			if f, ok := v.(float64); ok {
				s.args[k] = f
			}
		}
		set.all = append(set.all, s)
	}
	set.link()
	return set, nil
}

// slack absorbs the microsecond rounding of the Chrome export when testing
// containment.
const slack = 1000 // ns

// link assigns parents by lane and containment.
func (set *spanSet) link() {
	byTid := map[int][]*span{}
	for _, s := range set.all {
		byTid[s.tid] = append(byTid[s.tid], s)
	}
	for _, lane := range byTid {
		sort.SliceStable(lane, func(a, b int) bool {
			if lane[a].start != lane[b].start {
				return lane[a].start < lane[b].start
			}
			return lane[a].dur() > lane[b].dur()
		})
		var stack []*span
		for _, s := range lane {
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				if s.start >= top.start && s.end <= top.end+slack {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				s.parent = stack[len(stack)-1]
				s.parent.children = append(s.parent.children, s)
			} else {
				set.roots = append(set.roots, s)
			}
			stack = append(stack, s)
		}
	}
	sort.SliceStable(set.roots, func(a, b int) bool { return set.roots[a].start < set.roots[b].start })
}

// agg sums, over every span with one of the given names, the self time (s),
// the call count, and each numeric attribute.
type agg struct {
	self  float64
	calls int
	attrs map[string]float64
}

func (set *spanSet) agg(names ...string) agg {
	a := agg{attrs: map[string]float64{}}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, s := range set.all {
		if !want[s.name] {
			continue
		}
		a.self += float64(s.self()) / 1e9
		a.calls++
		for k, v := range s.args {
			a.attrs[k] += v
		}
	}
	return a
}

// named returns the spans called name, in start order.
func (set *spanSet) named(name string) []*span {
	var out []*span
	for _, s := range set.all {
		if s.name == name {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].start < out[b].start })
	return out
}

// reconcileTol is the share of a parent span's duration by which its self
// time plus its children's durations may differ from it, and by which a
// job's summed self times may differ from its separately timed wall time.
const reconcileTol = 0.02

// reconcile checks that every span of the tree under root is its own self
// time plus its children's durations — its children do not overlap — and
// returns the worst mismatch as a share of the span's duration, after
// granting each child the export's microsecond rounding, and the subtree's
// summed self time (s).
func reconcile(root *span) (worst, selfSum float64) {
	var walk func(s *span)
	walk = func(s *span) {
		selfSum += float64(s.self()) / 1e9
		if d := s.dur(); d > 0 && len(s.children) > 0 {
			var kids int64
			for _, c := range s.children {
				kids += c.dur()
			}
			off := math.Abs(float64(s.self()+kids-d)) - float64(slack*len(s.children))
			if e := off / float64(d); e > worst {
				worst = e
			}
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(root)
	return worst, selfSum
}
