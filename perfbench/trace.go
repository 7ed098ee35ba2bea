package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public function of the program. Times are nanoseconds since
// the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Proc   string `json:"proc"`
}

// tracer keeps spans in memory for one goroutine's nested calls. A nil
// *tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	epoch time.Time
	proc  string
	op    int
	spans []span
	stack []int
}

func newTracer(proc string) *tracer {
	return &tracer{epoch: time.Now(), proc: proc}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name,
		Start: int64(time.Since(t.epoch)), Proc: t.proc})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (which must be the innermost open span) and
// returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
	return float64(s.End-s.Start) / 1e9
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) float64 {
	id := t.begin(name)
	fn()
	return t.end(id)
}

// adopt merges spans recorded by another tracer (a child process)
// whose epoch was epochUnixNano, re-basing times and ids.
func (t *tracer) adopt(spans []span, epochUnixNano int64) {
	if t == nil {
		return
	}
	shift := epochUnixNano - t.epoch.UnixNano()
	base := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	for _, s := range spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		} else {
			s.Parent = parent
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each span name's total self time (its duration
// minus the part its child spans cover) and call count.
func (t *tracer) selfTimes() (self map[string]int64, calls map[string]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, calls = map[string]int64{}, map[string]int{}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
		calls[s.Name]++
	}
	return self, calls
}

// writeSelfTable prints the per-layer self-time table: one row per
// span name, grouped by layer (the name's first dotted component).
func (t *tracer) writeSelfTable(w io.Writer) {
	self, calls := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		li, lj := layerOf(names[i]), layerOf(names[j])
		if li != lj {
			return li < lj
		}
		return self[names[i]] > self[names[j]]
	})
	layerSelf := map[string]int64{}
	for n, ns := range self {
		layerSelf[layerOf(n)] += ns
	}
	fmt.Fprintf(w, "%-14s %-34s %6s %12s\n", "layer", "span", "calls", "self ms")
	prev := ""
	for _, n := range names {
		l := layerOf(n)
		if l != prev {
			fmt.Fprintf(w, "%-14s %-34s %6s %12.1f\n", l, "(layer total)", "", float64(layerSelf[l])/1e6)
			prev = l
		}
		fmt.Fprintf(w, "%-14s %-34s %6d %12.1f\n", "", n, calls[n], float64(self[n])/1e6)
	}
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// writeChrome exports the spans as Chrome trace-event JSON (complete
// "X" events, microsecond times), viewable in Perfetto or
// chrome://tracing.
func (t *tracer) writeChrome(path string, manifest any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	pids := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		pid, ok := pids[s.Proc]
		if !ok {
			pid = len(pids) + 1
			pids[s.Proc] = pid
		}
		events = append(events, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: pid, Tid: 1,
			Args: map[string]any{"op": s.Op, "id": s.ID, "parent": s.Parent, "proc": s.Proc},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "metadata": manifest}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
