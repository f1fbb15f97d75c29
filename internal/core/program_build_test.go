package core

import (
	"math/rand"
	"testing"

	"gavel/internal/lp"
)

// TestMemberIndexHoldsEachIncidenceOnce is the index's size contract: one
// entry per (unit, member) incidence — so building it, and everything that
// walks it, is linear in the incidences — listed per job in ascending unit
// order with the job's slot in each unit.
func TestMemberIndexHoldsEachIncidenceOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const jobs = 200
	var units []Unit
	for m := 0; m < jobs; m++ {
		units = append(units, Single(m, []float64{1, 1}))
	}
	for p := 0; p < 300; p++ {
		a, b := rng.Intn(jobs), rng.Intn(jobs)
		if a != b {
			units = append(units, Pair(a, b, []float64{1, 1}, []float64{1, 1}))
		}
	}
	incidences := 0
	for ui := range units {
		incidences += len(units[ui].Jobs)
	}
	var idx MemberIndex
	idx.Build(units)
	if idx.Len() != incidences {
		t.Fatalf("index holds %d entries for %d (unit, member) incidences", idx.Len(), incidences)
	}
	if idx.NumJobs() != jobs {
		t.Fatalf("index covers %d jobs, want %d", idx.NumJobs(), jobs)
	}
	seen := 0
	for m := 0; m < jobs; m++ {
		us, slots := idx.Of(m)
		for i, ui := range us {
			if i > 0 && us[i-1] >= ui {
				t.Fatalf("job %d: units %v not strictly ascending", m, us)
			}
			if units[ui].Jobs[slots[i]] != m {
				t.Fatalf("job %d: unit %d slot %d holds job %d", m, ui, slots[i], units[ui].Jobs[slots[i]])
			}
			seen++
		}
	}
	if seen != incidences {
		t.Fatalf("walking every job visits %d incidences, want %d", seen, incidences)
	}
}

// TestProgramRowsComeFromTheIndex builds a 4096-unit program whose units are
// deliberately NOT at their jobs' positions (unit i holds job perm[i]). Each
// job's budget row must hold exactly its own unit's columns — which a build
// can only get right by following the membership index, since nothing about
// a unit's position says which job it serves — and, the documented layout
// being violated, every budget row must be anonymous rather than carry some
// other job's identity. Row and term counts pin the build at one term per
// (unit, member, usable type): linear, with no job × unit scan behind it.
func TestProgramRowsComeFromTheIndex(t *testing.T) {
	const n, numTypes = 4096, 3
	perm := rand.New(rand.NewSource(9)).Perm(n)
	pos := make([]int, n) // job -> unit position
	units := make([]Unit, n)
	sf := make([]int, n)
	for i := range units {
		units[i] = Single(perm[i], []float64{1 + float64(i%5), 2, 0.5}).Keyed(JobKey(1000 + perm[i]))
		pos[perm[i]] = i
		sf[i] = 1
	}
	pr := NewProgram(lp.Maximize, units, sf, []float64{64, 64, 64})
	if got := pr.P.NumConstraints(); got != n+numTypes {
		t.Fatalf("%d rows, want %d budget + %d capacity", got, n, numTypes)
	}
	terms := 0
	for m := 0; m < n; m++ {
		row, op, rhs, id := pr.P.Row(m)
		terms += len(row)
		if op != lp.LE || rhs != 1 {
			t.Fatalf("job %d budget row is %v %v", m, op, rhs)
		}
		if perm[m] != m && id != "" {
			t.Fatalf("job %d budget row labelled %q although unit %d serves job %d", m, id, m, perm[m])
		}
		if len(row) != numTypes {
			t.Fatalf("job %d budget row has %d terms, want %d", m, len(row), numTypes)
		}
		for j, tm := range row {
			if tm.Var != pr.XVar[pos[m]][j] || tm.Coeff != 1 {
				t.Fatalf("job %d budget term %d = %+v, want column %d of unit %d", m, j, tm, pr.XVar[pos[m]][j], pos[m])
			}
		}
		if tt := pr.ThroughputTerms(m, 1); len(tt) != numTypes || tt[0].Var != pr.XVar[pos[m]][0] {
			t.Fatalf("job %d throughput terms %+v do not sit on unit %d", m, tt, pos[m])
		}
	}
	if terms != n*numTypes {
		t.Fatalf("budget rows hold %d terms, want one per (unit, member, type) = %d", terms, n*numTypes)
	}
}

// TestProgramRewindRestoresSkeleton checks that a rewound program is the
// program Build produced: policy columns, rows, identities and objective are
// gone, the skeleton rows are intact, and rebuilding on top gives the same
// LP as a fresh build.
func TestProgramRewindRestoresSkeleton(t *testing.T) {
	units := []Unit{
		Single(0, []float64{2, 1}).Keyed(JobKey(7)),
		Single(1, []float64{1, 3}).Keyed(JobKey(9)),
		Pair(0, 1, []float64{1, 0.5}, []float64{0.5, 1.5}).Keyed(PairKey(7, 9)),
	}
	build := func(pr *Program) {
		tv := pr.AddVar(1, "t")
		for m := 0; m < 2; m++ {
			terms := append(pr.ThroughputTerms(m, 1), lp.Term{Var: tv, Coeff: -1})
			pr.AddRow(terms, lp.GE, 0, "r")
		}
	}
	pr := NewProgram(lp.Maximize, units, []int{1, 1}, []float64{1, 1})
	vars, rows := pr.P.NumVars(), pr.P.NumConstraints()
	build(pr)
	pr.P.AddObj(0, 5)
	want, err := pr.P.Solve()
	if err != nil {
		t.Fatal(err)
	}
	pr.Rewind()
	if pr.P.NumVars() != vars || pr.P.NumConstraints() != rows || len(pr.ColumnIDs()) != vars {
		t.Fatalf("rewound to %d vars / %d rows / %d ids, skeleton has %d / %d", pr.P.NumVars(), pr.P.NumConstraints(), len(pr.ColumnIDs()), vars, rows)
	}
	for v := 0; v < vars; v++ {
		if pr.P.ObjCoeff(v) != 0 {
			t.Fatalf("objective coefficient %d survived the rewind", v)
		}
	}
	build(pr)
	pr.P.AddObj(0, 5)
	got, err := pr.P.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Objective != want.Objective {
		t.Fatalf("rebuilt program solves to %v %v, first build %v %v", got.Status, got.Objective, want.Status, want.Objective)
	}
}

// buildBenchUnits assembles the units of a build benchmark: n single-job
// units over the throughput cache, plus space-sharing pairs when asked.
func buildBenchUnits(n int, pairs bool) ([]Unit, []int) {
	rng := rand.New(rand.NewSource(int64(n)))
	cache := NewThroughputCache(3)
	ids := make([]int, n)
	for id := 0; id < n; id++ {
		ids[id] = id
		cache.AddJob(id, 1, []float64{4 + rng.Float64(), 2 + rng.Float64(), 1 + rng.Float64()})
	}
	maxPairs := 0
	if pairs {
		maxPairs = 4
		for a := 0; a < n; a++ {
			for k := 1; k <= 6; k++ {
				b := (a + k*17) % n
				if a != b {
					cache.SetPair(a, b, []float64{3.5, 1.6, 0.8}, []float64{3.3, 1.5, 0.9})
				}
			}
		}
	}
	sf := make([]int, n)
	for i := range sf {
		sf[i] = 1
	}
	return cache.Units(ids, 1.05, maxPairs), sf
}

// BenchmarkProgramBuild times program build alone — no solve — in the steady
// state of a reset stream: one Program rebuilt over the same units, as
// policy.SolveContext does. maxmin builds the skeleton plus one throughput
// row per job; cost builds the Charnes-Cooper layout plus its normalization
// row. Time must scale with the incidences (cost_4096 about 4x cost_1024)
// and a warmed-up build must not allocate.
func BenchmarkProgramBuild(b *testing.B) {
	cases := []struct {
		name  string
		jobs  int
		pairs bool
		cost  bool
	}{
		{"maxmin_ss_256", 256, true, false},
		{"cost_1024", 1024, false, true},
		{"cost_4096", 4096, false, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			units, sf := buildBenchUnits(c.jobs, c.pairs)
			per := float64(c.jobs) / 4
			workers := []float64{per, per, per}
			var pr Program
			den := make([]float64, 3*len(units)+1)
			build := func() {
				if c.cost {
					pr.BuildHomogeneous(lp.Maximize, units, sf, workers)
					for v := range den {
						den[v] = 1
					}
					pr.AddNormalization(den[:pr.P.NumVars()], 0)
					return
				}
				pr.Build(lp.Maximize, units, sf, workers)
				tv := pr.AddVar(1, "t")
				for m := 0; m < c.jobs; m++ {
					terms := append(pr.ThroughputTerms(m, 1), lp.Term{Var: tv, Coeff: -1})
					pr.AddRow(terms, lp.GE, 0, "")
				}
			}
			build() // grow the program's storage once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				build()
			}
		})
	}
}

// TestAllJobsAccountingMatchesPerJob pins the one-pass all-jobs accounting to
// the per-job scans bit for bit, pairs included: each job's sum must add the
// same products in the same order.
func TestAllJobsAccountingMatchesPerJob(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const jobs = 40
	var units []Unit
	row := func() []float64 { return []float64{rng.Float64() * 7, rng.Float64() * 3, rng.Float64()} }
	for m := 0; m < jobs; m++ {
		units = append(units, Single(m, row()))
	}
	for p := 0; p < 60; p++ {
		if a, b := rng.Intn(jobs), rng.Intn(jobs); a != b {
			units = append(units, Pair(a, b, row(), row()))
		}
	}
	alloc := &Allocation{Units: units, X: make([][]float64, len(units))}
	for ui := range alloc.X {
		alloc.X[ui] = []float64{rng.Float64() / 9, rng.Float64() / 9, 0}
	}
	tput, frac := alloc.EffectiveThroughputs(jobs), alloc.JobTimeFractions(jobs)
	for m := 0; m < jobs; m++ {
		if want := alloc.EffectiveThroughput(m); tput[m] != want {
			t.Fatalf("job %d: EffectiveThroughputs %v, EffectiveThroughput %v", m, tput[m], want)
		}
		if want := alloc.JobTimeFraction(m); frac[m] != want {
			t.Fatalf("job %d: JobTimeFractions %v, JobTimeFraction %v", m, frac[m], want)
		}
	}
}
