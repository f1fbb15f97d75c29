package policy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"gavel/internal/core"
	"gavel/internal/workload"
)

// The reset-path golden: ten reset streams (Units → Allocate through one
// SolveContext, 40 resets each) whose every Allocation.X bit pattern and
// per-reset solve accounting were recorded at the commit before the reset
// path was rebuilt on the member index and the arena (the first six) or
// before the policies' programs were folded onto one shared max-min kernel
// and one weighted-objective LP (the last four). Any changed pivot —
// one reordered floating-point operation in program build, presolve, the
// factorization or the eta file — changes a digest or a count here, in
// under two seconds instead of a benchmark run.
//
// The file holds for amd64 only (other architectures may fuse
// multiply-adds); regenerate with GAVEL_RESET_GOLDEN_WRITE=1.

const resetGoldenPath = "testdata/reset_golden.json"

type resetGoldenStep struct {
	X                  string `json:"x"` // sha256 of the reset's X bits, first 16 hex digits
	Solves             int    `json:"solves"`
	Warm               int    `json:"warm"`
	Remap              int    `json:"remap"`
	Iterations         int    `json:"iterations"`
	DualIterations     int    `json:"dual_iterations"`
	Refactorizations   int    `json:"refactorizations"`
	PresolveReductions int    `json:"presolve_reductions"`
}

type resetGoldenScenario struct {
	Digest string            `json:"digest"` // sha256 over every reset's X bits
	Steps  []resetGoldenStep `json:"steps"`
}

type resetGoldenFile struct {
	Arch      string                         `json:"arch"`
	Scenarios map[string]resetGoldenScenario `json:"scenarios"`
}

type resetDisturb int

const (
	resetChurn   resetDisturb = iota // oldest job departs, a new one arrives
	resetPerturb                     // every isolated throughput moves <= 1 %
	resetDrift                       // per-type capacity moves <= 2 %
)

type resetScenario struct {
	name    string
	policy  func() Policy
	jobs    int
	pairs   int // max space-sharing pairs per job (0 = singles only)
	disturb resetDisturb
	slo     bool
	resets  int
}

var resetScenarios = []resetScenario{
	{name: "maxmin_ss_churn", policy: func() Policy { return &MaxMinFairness{} }, jobs: 64, pairs: 4, disturb: resetChurn, resets: 40},
	{name: "ftf_churn", policy: func() Policy { return &FinishTimeFairness{} }, jobs: 64, disturb: resetChurn, resets: 40},
	{name: "cost_drift", policy: func() Policy { return &MinCost{} }, jobs: 128, disturb: resetDrift, resets: 40},
	{name: "cost_slo_perturb", policy: func() Policy { return &MinCost{EnforceSLOs: true} }, jobs: 96, disturb: resetPerturb, slo: true, resets: 40},
	{name: "hier_perturb", policy: func() Policy { return &Hierarchical{} }, jobs: 64, disturb: resetPerturb, resets: 40},
	{name: "makespan_churn", policy: func() Policy { return Makespan{} }, jobs: 96, disturb: resetChurn, resets: 40},
	{name: "fifo_ss_churn", policy: func() Policy { return FIFO{} }, jobs: 64, pairs: 4, disturb: resetChurn, resets: 40},
	{name: "sjf_churn", policy: func() Policy { return ShortestJobFirst{} }, jobs: 64, disturb: resetChurn, resets: 40},
	{name: "maxtput_perturb", policy: func() Policy { return MaxTotalThroughput{} }, jobs: 96, disturb: resetPerturb, resets: 40},
	{name: "placement_churn", policy: func() Policy { return &PlacementAwareMaxMin{} }, jobs: 64, disturb: resetChurn, resets: 40},
}

// resetStream drives one scenario's reset stream: a throughput cache over
// the model zoo, disturbed between resets, assembled into a policy input.
type resetStream struct {
	sc      resetScenario
	zoo     []workload.Config
	rng     *rand.Rand
	cache   *core.ThroughputCache
	ids     []int
	nextID  int
	per     float64
	workers []float64
}

func newResetStream(sc resetScenario, seed int64) *resetStream {
	s := &resetStream{sc: sc, zoo: workload.Zoo(), rng: rand.New(rand.NewSource(seed))}
	s.cache = core.NewThroughputCache(workload.NumTypes)
	for id := 0; id < sc.jobs; id++ {
		s.add(id)
	}
	s.nextID = sc.jobs
	s.per = float64(sc.jobs) / 4
	s.workers = []float64{s.per, s.per, s.per}
	return s
}

func (s *resetStream) config(id int) workload.Config { return s.zoo[(id*7+3)%len(s.zoo)] }

func (s *resetStream) add(id int) {
	cfg := s.config(id)
	row := make([]float64, workload.NumTypes)
	for t := range row {
		if workload.Fits(cfg, t) {
			row[t] = workload.Throughput(cfg, t)
		}
	}
	s.cache.AddJob(id, 1, row)
	if s.sc.pairs > 0 {
		for _, other := range s.ids {
			ta := make([]float64, workload.NumTypes)
			tb := make([]float64, workload.NumTypes)
			for t := 0; t < workload.NumTypes; t++ {
				if ca, cb, ok := workload.Colocated(cfg, s.config(other), t); ok {
					ta[t], tb[t] = ca, cb
				}
			}
			s.cache.SetPair(id, other, ta, tb)
		}
	}
	s.ids = append(s.ids, id)
}

// disturb applies the scenario's between-reset change.
func (s *resetStream) disturb() {
	switch s.sc.disturb {
	case resetChurn:
		s.cache.RemoveJob(s.ids[0])
		s.ids = append([]int(nil), s.ids[1:]...)
		s.add(s.nextID)
		s.nextID++
	case resetPerturb:
		for _, id := range s.ids {
			row := append([]float64(nil), s.cache.JobTput(id)...)
			for t, v := range row {
				if v > 0 {
					row[t] = v * (1 + 0.01*(2*s.rng.Float64()-1))
				}
			}
			s.cache.ObserveJob(id, row)
		}
	case resetDrift:
		for t := range s.workers {
			s.workers[t] = s.per * (1 + 0.02*(2*s.rng.Float64()-1))
		}
	}
}

// numPairs counts the space-sharing units of an input.
func numPairs(in *Input) int {
	n := 0
	for i := range in.Units {
		if in.Units[i].IsPair() {
			n++
		}
	}
	return n
}

// input assembles the policy input for the current job set.
func (s *resetStream) input() *Input {
	in := &Input{
		Units:   s.cache.Units(s.ids, 1.05, s.sc.pairs),
		Workers: append([]float64(nil), s.workers...),
		Prices:  []float64{3.06, 1.46, 0.9},
	}
	for _, id := range s.ids {
		ji := JobInfo{
			ID: id, Weight: 1 + 0.01*float64(id%997), Priority: 1, ScaleFactor: 1,
			Tput: s.cache.JobTput(id), RemainingSteps: 1e6 * (1 + float64(id%5)), TotalSteps: 1e7,
			Elapsed: 3600, ArrivalSeq: id, Entity: id % 4, NumActiveJobs: len(s.ids),
		}
		if s.sc.slo && id%3 == 0 {
			// A mix of comfortable, tight and hopeless deadlines.
			ji.SLORemaining = ji.RemainingSteps / (core.MaxThroughput(ji.Tput) * (0.2 + 0.3*float64(id%4)))
		}
		in.Jobs = append(in.Jobs, ji)
	}
	return in
}

func hashX(h interface{ Write([]byte) (int, error) }, alloc *core.Allocation) {
	var b [8]byte
	for _, row := range alloc.X {
		for _, x := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
}

// resetReplay replays one scenario's reset stream a reset at a time,
// accumulating what the golden pins.
type resetReplay struct {
	sc   resetScenario
	s    *resetStream
	pol  Policy
	ctx  *SolveContext
	all  hash.Hash
	out  resetGoldenScenario
	prev SolveStats
}

func newResetReplay(sc resetScenario) *resetReplay {
	return &resetReplay{sc: sc, s: newResetStream(sc, 20260926), pol: sc.policy(), ctx: NewSolveContext(), all: sha256.New()}
}

// step runs the next reset. With fresh set it runs on a new context that
// carries over only the old one's warm-start seeds and accounting, so the
// Allocate borrows a scratch some other context grew.
func (p *resetReplay) step(fresh bool) error {
	r := len(p.out.Steps)
	if r > 0 {
		p.s.disturb()
		if p.sc.disturb == resetDrift && r%4 == 3 {
			// Drift alone re-solves in a handful of dual pivots; an
			// occasional arrival/departure makes the stream remap too.
			p.s.sc.disturb = resetChurn
			p.s.disturb()
			p.s.sc.disturb = resetDrift
		}
	}
	in := p.s.input()
	if p.sc.pairs > 0 && numPairs(in) == 0 {
		return fmt.Errorf("%s reset %d: no space-sharing units in the input", p.sc.name, r)
	}
	if fresh {
		ctx := NewSolveContext()
		ctx.ImportSeeds(p.ctx.ExportSeeds())
		ctx.Stats = p.ctx.Stats
		p.ctx = ctx
	}
	alloc, err := p.pol.Allocate(in, p.ctx)
	if err != nil {
		return fmt.Errorf("%s reset %d: %v", p.sc.name, r, err)
	}
	one := sha256.New()
	hashX(one, alloc)
	hashX(p.all, alloc)
	st := p.ctx.Stats
	p.out.Steps = append(p.out.Steps, resetGoldenStep{
		X:                  hex.EncodeToString(one.Sum(nil))[:16],
		Solves:             st.Solves - p.prev.Solves,
		Warm:               st.WarmHits - p.prev.WarmHits,
		Remap:              st.RemapHits - p.prev.RemapHits,
		Iterations:         st.Iterations - p.prev.Iterations,
		DualIterations:     st.DualIterations - p.prev.DualIterations,
		Refactorizations:   st.Refactorizations - p.prev.Refactorizations,
		PresolveReductions: st.PresolveReductions - p.prev.PresolveReductions,
	})
	p.prev = st
	return nil
}

func (p *resetReplay) result() resetGoldenScenario {
	out := p.out
	out.Digest = hex.EncodeToString(p.all.Sum(nil))
	return out
}

// runResetScenario replays one scenario through one context and returns
// what the golden pins.
func runResetScenario(t testing.TB, sc resetScenario) resetGoldenScenario {
	p := newResetReplay(sc)
	for r := 0; r < sc.resets; r++ {
		if err := p.step(false); err != nil {
			t.Fatal(err)
		}
	}
	return p.result()
}

// loadResetGolden reads the recorded streams, skipping off amd64.
func loadResetGolden(t *testing.T) resetGoldenFile {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("reset golden is recorded for amd64, running on %s", runtime.GOARCH)
	}
	b, err := os.ReadFile(resetGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g resetGoldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// checkResetGolden compares one replayed stream with its recorded entry.
func checkResetGolden(t *testing.T, g resetGoldenFile, name string, got resetGoldenScenario) {
	t.Helper()
	want, ok := g.Scenarios[name]
	if !ok {
		t.Fatalf("no golden entry for %s", name)
	}
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d resets, golden has %d", name, len(got.Steps), len(want.Steps))
	}
	for r := range got.Steps {
		if got.Steps[r] != want.Steps[r] {
			t.Fatalf("%s: reset %d diverges from the parent commit:\n got  %+v\n want %+v", name, r, got.Steps[r], want.Steps[r])
		}
	}
	if got.Digest != want.Digest {
		t.Fatalf("%s: digest %s, want %s", name, got.Digest, want.Digest)
	}
}

func TestResetPathMatchesParentGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("reset golden is recorded for amd64, running on %s", runtime.GOARCH)
	}
	if os.Getenv("GAVEL_RESET_GOLDEN_WRITE") != "" {
		g := resetGoldenFile{Arch: runtime.GOARCH, Scenarios: map[string]resetGoldenScenario{}}
		for _, sc := range resetScenarios {
			g.Scenarios[sc.name] = runResetScenario(t, sc)
		}
		b, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resetGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", resetGoldenPath)
		return
	}
	g := loadResetGolden(t)
	for _, sc := range resetScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			checkResetGolden(t, g, sc.name, runResetScenario(t, sc))
		})
	}
}

// TestResetGoldenAcrossLentScratches replays the golden streams with the
// solve scratches changing hands: once with every scenario's resets
// interleaved, each scenario on its own context, so every Allocate borrows
// the scratch another policy at another size just grew; then the same with
// a fresh context per reset. Both must land on the recorded bits and counts.
func TestResetGoldenAcrossLentScratches(t *testing.T) {
	g := loadResetGolden(t)
	for _, fresh := range []bool{false, true} {
		name := "interleaved"
		if fresh {
			name = "fresh_context_per_reset"
		}
		t.Run(name, func(t *testing.T) {
			replays := make([]*resetReplay, len(resetScenarios))
			for i, sc := range resetScenarios {
				replays[i] = newResetReplay(sc)
			}
			for busy := true; busy; {
				busy = false
				for _, p := range replays {
					if len(p.out.Steps) == p.sc.resets {
						continue
					}
					if err := p.step(fresh); err != nil {
						t.Fatal(err)
					}
					busy = true
				}
			}
			for _, p := range replays {
				checkResetGolden(t, g, p.sc.name, p.result())
			}
		})
	}
}
