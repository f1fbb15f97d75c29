package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"gavel/internal/obs"
)

// span is one layer call recorded by the benchmark itself, around a call
// into the program. Round is obs.RoundTrace(round): the same key the
// program stamps on its own coord.*/shard.*/journal.commit spans, so the two
// sets join per round.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // 0 = root
	Name    string `json:"name"`
	Round   string `json:"round,omitempty"`
	Shard   int    `json:"shard,omitempty"` // 1-based; 0 = not a shard call
	StartNs int64  `json:"start_ns"`        // since the pass started
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory. A nil *tracer no-ops, so
// untraced passes run the same code. begin/end nest on the driver
// goroutine's stack; leaf records a finished call from any goroutine (the
// coordinator's fan-out calls shards concurrently) under whatever driver
// span is open.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
	round string
}

func newTracer() *tracer { return &tracer{} }

// start puts the tracer's clock at the pass start.
func (t *tracer) start(t0 time.Time) {
	if t != nil {
		t.t0 = t0
	}
}

func (t *tracer) setRound(r int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round = obs.RoundTrace(r)
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: t.round, StartNs: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

func (t *tracer) leaf(name string, shard int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Round: t.round, Shard: shard + 1,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
}

// selfTimes derives each span name's total and self time: a span's self
// time is its duration minus the part of it that its child spans cover
// (children of one span may overlap: the shard calls of one fan-out do).
func selfTimes(spans []span) (names []string, total, self map[string]float64, count map[string]int) {
	kids := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.StartNs, s.EndNs})
		}
	}
	total, self, count = map[string]float64{}, map[string]float64{}, map[string]int{}
	for _, s := range spans {
		d := s.EndNs - s.StartNs
		total[s.Name] += float64(d) / 1e6
		self[s.Name] += float64(d-coverage(kids[s.ID])) / 1e6
		count[s.Name]++
	}
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, total, self, count
}

// spanFile is what -trace writes: the benchmark's spans and the spans the
// program recorded itself during the same pass, both keyed by round.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// PassStartUnixNs places the benchmark's spans (relative to the pass
	// start) on the program spans' absolute clock.
	PassStartUnixNs int64      `json:"pass_start_unix_ns"`
	Spans           []span     `json:"bench_spans"`
	Program         []obs.Span `json:"program_spans"`
}

func writeSpanFile(path string, f spanFile) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
