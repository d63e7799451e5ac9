package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// samples is a concurrency-safe list of observations of one quantity.
type samples struct {
	mu   sync.Mutex
	vals []float64
}

func (s *samples) add(v float64) {
	s.mu.Lock()
	s.vals = append(s.vals, v)
	s.mu.Unlock()
}

func (s *samples) addDur(d time.Duration) { s.add(d.Seconds()) }

// sorted returns a sorted copy of the observations.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.vals...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// quantile returns the nearest-rank q-quantile of sorted values (0 when
// empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(sorted []float64) float64 { return quantile(sorted, 0.5) }

// tailQuantiles are the percentiles a timing may report beside its median,
// highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9}

// tail returns the highest percentile of n samples that still has at least
// ten samples beyond it; ok is false when even p90 has fewer.
func tail(n int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// stat is one named figure of a run: its value, unit, and how many samples
// it summarizes. Timings carry their tail percentile when the sample count
// supports one, and their range when it does not.
type stat struct {
	name   string
	value  float64
	unit   string
	n      int
	tailQ  float64
	tailV  float64
	lo, hi float64
}

// timing summarizes s (seconds) as its median in the given unit ("s" or
// "ms"), with the tail percentile when there are enough samples.
func timing(name, unit string, s *samples) stat {
	scale := 1.0
	if unit == "ms" {
		scale = 1e3
	}
	v := s.sorted()
	st := stat{name: name, value: median(v) * scale, unit: unit, n: len(v)}
	if q, ok := tail(len(v)); ok {
		st.tailQ, st.tailV = q, quantile(v, q)*scale
	} else if len(v) > 1 {
		st.lo, st.hi = v[0]*scale, v[len(v)-1]*scale
	}
	return st
}

func (st stat) String() string {
	line := fmt.Sprintf("  %-34s %14.6g %-6s n=%d", st.name, st.value, st.unit, st.n)
	if st.tailQ > 0 {
		line += fmt.Sprintf("  p%g=%.6g", st.tailQ*100, st.tailV)
	} else if st.hi > 0 {
		line += fmt.Sprintf("  range %.6g..%.6g", st.lo, st.hi)
	}
	return line
}

// liveHeapMB reads the heap that survived the most recent GC cycle. Unlike
// HeapAlloc it does not include garbage awaiting collection, and unlike a
// forced runtime.GC it costs the measured code nothing.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// heapPeak tracks the high-water mark of liveHeapMB, sampled by the caller
// (ChunkHook) and every 20ms by a background ticker while running.
type heapPeak struct {
	mu   sync.Mutex
	peak float64
	stop chan struct{}
	done chan struct{}
}

func (h *heapPeak) sample() {
	v := liveHeapMB()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

func (h *heapPeak) start() {
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
}

// reset returns the peak since the last reset (or start) and starts a new
// one.
func (h *heapPeak) reset() float64 {
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return p
}

// end stops the ticker and returns the peak since the last reset.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return h.reset()
}

// hostFacts describes the machine the numbers were taken on.
func hostFacts() string {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
