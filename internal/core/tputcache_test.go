package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refState is the from-scratch reference the cache must match: plain maps of
// the same logical state, with units rebuilt from nothing on every query.
type refState struct {
	numTypes int
	tput     map[int][]float64
	sf       map[int]int
	pairs    map[[2]int][2][]float64 // key sorted; [0] = lower id's row
}

func newRefState(numTypes int) *refState {
	return &refState{
		numTypes: numTypes,
		tput:     map[int][]float64{},
		sf:       map[int]int{},
		pairs:    map[[2]int][2][]float64{},
	}
}

func (r *refState) key(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (r *refState) units(ids []int, minGain float64, maxPairs int) []Unit {
	units := make([]Unit, 0, len(ids))
	for m, id := range ids {
		t := r.tput[id]
		if t == nil {
			t = make([]float64, r.numTypes)
		}
		units = append(units, Single(m, t).Keyed(JobKey(id)))
	}
	type cand struct {
		a, b int
		gain float64
	}
	var cands []cand
	for a := 0; a < len(ids); a++ {
		if r.sf[ids[a]] > 1 {
			continue
		}
		for b := a + 1; b < len(ids); b++ {
			if r.sf[ids[b]] > 1 {
				continue
			}
			p, ok := r.pairs[r.key(ids[a], ids[b])]
			if !ok {
				continue
			}
			ta, tb := p[0], p[1]
			if ids[a] > ids[b] {
				ta, tb = tb, ta
			}
			best := 0.0
			for t := 0; t < r.numTypes; t++ {
				ia, ib := r.tput[ids[a]][t], r.tput[ids[b]][t]
				if ia > 0 && ib > 0 {
					if g := ta[t]/ia + tb[t]/ib; g > best {
						best = g
					}
				}
			}
			if best > minGain {
				cands = append(cands, cand{a: a, b: b, gain: best})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		if cands[i].a != cands[j].a {
			return cands[i].a < cands[j].a
		}
		return cands[i].b < cands[j].b
	})
	count := make([]int, len(ids))
	for _, s := range cands {
		if count[s.a] >= maxPairs || count[s.b] >= maxPairs {
			continue
		}
		count[s.a]++
		count[s.b]++
		p := r.pairs[r.key(ids[s.a], ids[s.b])]
		ta, tb := p[0], p[1]
		if ids[s.a] > ids[s.b] {
			ta, tb = tb, ta
		}
		units = append(units, Pair(s.a, s.b, ta, tb).Keyed(PairKey(ids[s.a], ids[s.b])))
	}
	return units
}

func unitsEqual(t *testing.T, got, want []Unit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("unit count: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i].Jobs) != len(want[i].Jobs) {
			t.Fatalf("unit %d member count: got %v want %v", i, got[i].Jobs, want[i].Jobs)
		}
		for k := range got[i].Jobs {
			if got[i].Jobs[k] != want[i].Jobs[k] {
				t.Fatalf("unit %d members: got %v want %v", i, got[i].Jobs, want[i].Jobs)
			}
			for j := range got[i].Tput[k] {
				if math.Abs(got[i].Tput[k][j]-want[i].Tput[k][j]) > 1e-12 {
					t.Fatalf("unit %d member %d type %d: got %v want %v",
						i, k, j, got[i].Tput[k][j], want[i].Tput[k][j])
				}
			}
		}
	}
}

// TestThroughputCacheMatchesFromScratch drives the cache through random
// add/remove/observe sequences and asserts Units always matches a
// from-scratch reconstruction of the same logical state.
func TestThroughputCacheMatchesFromScratch(t *testing.T) {
	const numTypes = 3
	rng := rand.New(rand.NewSource(23))
	cache := NewThroughputCache(numTypes)
	ref := newRefState(numTypes)
	var live []int
	nextID := 0

	randTput := func() []float64 {
		t := make([]float64, numTypes)
		for j := range t {
			if rng.Float64() < 0.9 {
				t[j] = 0.5 + 2*rng.Float64()
			}
		}
		return t
	}

	for step := 0; step < 600; step++ {
		switch op := rng.Float64(); {
		case op < 0.35 || len(live) == 0: // add
			id := nextID
			nextID++
			sf := 1
			if rng.Float64() < 0.2 {
				sf = 2 + rng.Intn(3)
			}
			tput := randTput()
			cache.AddJob(id, sf, tput)
			ref.tput[id] = append([]float64(nil), tput...)
			ref.sf[id] = sf
			// Pair the newcomer against every live single-worker job.
			if sf == 1 {
				for _, other := range live {
					if ref.sf[other] > 1 || rng.Float64() < 0.3 {
						continue
					}
					ta, tb := randTput(), randTput()
					cache.SetPair(id, other, ta, tb)
					lo, hi := ta, tb
					if id > other {
						lo, hi = tb, ta
					}
					ref.pairs[ref.key(id, other)] = [2][]float64{
						append([]float64(nil), lo...), append([]float64(nil), hi...)}
				}
			}
			live = append(live, id)
		case op < 0.55: // remove
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			cache.RemoveJob(id)
			delete(ref.tput, id)
			delete(ref.sf, id)
			for key := range ref.pairs {
				if key[0] == id || key[1] == id {
					delete(ref.pairs, key)
				}
			}
		case op < 0.75: // observe isolated
			id := live[rng.Intn(len(live))]
			tput := randTput()
			cache.ObserveJob(id, tput)
			ref.tput[id] = append([]float64(nil), tput...)
		default: // observe one pair entry
			if len(ref.pairs) == 0 {
				continue
			}
			keys := make([][2]int, 0, len(ref.pairs))
			for k := range ref.pairs {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
			})
			key := keys[rng.Intn(len(keys))]
			typ := rng.Intn(numTypes)
			ta, tb := 0.5+rng.Float64(), 0.5+rng.Float64()
			cache.ObservePair(key[0], key[1], typ, ta, tb)
			p := ref.pairs[key]
			lo := append([]float64(nil), p[0]...)
			hi := append([]float64(nil), p[1]...)
			lo[typ], hi[typ] = ta, tb
			ref.pairs[key] = [2][]float64{lo, hi}
		}

		if step%7 == 0 {
			ids := append([]int(nil), live...)
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			unitsEqual(t, cache.Units(ids, 1.05, 4), ref.units(ids, 1.05, 4))
		}
	}
	if cache.Len() != len(live) {
		t.Fatalf("cache holds %d jobs, %d live", cache.Len(), len(live))
	}
}

// unitsIdentical holds got to want bit for bit: members, rows and keys.
func unitsIdentical(got, want []Unit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d units, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Key != w.Key || !slices.Equal(g.Jobs, w.Jobs) || len(g.Tput) != len(w.Tput) {
			return fmt.Errorf("unit %d: got %q %v, want %q %v", i, g.Key, g.Jobs, w.Key, w.Jobs)
		}
		for k := range g.Tput {
			if !slices.Equal(g.Tput[k], w.Tput[k]) {
				return fmt.Errorf("unit %d (%s) member %d: got %v, want %v", i, g.Key, k, g.Tput[k], w.Tput[k])
			}
		}
	}
	return nil
}

// TestPairCacheChurnMatchesReference churns a small ID pool through every
// cache mutation (adds, removals, re-adds of removed IDs, overwrites, pair
// rows, pair and job observations) and after every batch holds UnitsInto,
// over one reused slab, to the from-scratch reference, keys included. The
// pool is small, so the entries departures free are refilled constantly, and
// a re-added ID must come back without any of its old pairs.
func TestPairCacheChurnMatchesReference(t *testing.T) {
	const numTypes, pool, batch, ops = 3, 40, 8, 2400
	rng := rand.New(rand.NewSource(43))
	c := NewThroughputCache(numTypes)
	ref := newRefState(numTypes)
	row := func() []float64 {
		r := make([]float64, numTypes)
		for j := range r {
			if rng.Intn(10) > 0 {
				r[j] = 0.5 + 2*rng.Float64()
			}
		}
		return r
	}
	var live []int
	removed := map[int]bool{}
	pick2 := func() (int, int) {
		i := rng.Intn(len(live))
		j := (i + 1 + rng.Intn(len(live)-1)) % len(live)
		return live[i], live[j]
	}
	setPair := func(a, b int) {
		ta, tb := row(), row()
		c.SetPair(a, b, ta, tb)
		if a > b {
			ta, tb = tb, ta
		}
		ref.pairs[ref.key(a, b)] = [2][]float64{ta, tb}
	}
	var slab UnitSlab
	readds, queries := 0, 0
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(20); {
		case len(live) < 2 || (k < 4 && len(live) < 3*pool/4): // add a non-resident ID
			id := rng.Intn(pool)
			for ref.tput[id] != nil {
				id = (id + 1) % pool
			}
			sf := 1
			if rng.Intn(6) == 0 {
				sf = 2
			}
			tput := row()
			c.AddJob(id, sf, tput)
			ref.tput[id], ref.sf[id] = tput, sf
			if removed[id] {
				readds++
				for _, other := range live {
					if c.HasPair(id, other) {
						t.Fatalf("op %d: re-added job %d came back paired with %d", op, id, other)
					}
				}
			}
			for _, other := range live { // pair the newcomer, as a placement does
				if rng.Intn(3) > 0 {
					setPair(id, other)
				}
			}
			live = append(live, id)
		case k < 6: // remove
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			c.RemoveJob(id)
			delete(ref.tput, id)
			delete(ref.sf, id)
			for key := range ref.pairs {
				if key[0] == id || key[1] == id {
					delete(ref.pairs, key)
				}
			}
			removed[id] = true
		case k < 7: // overwrite a resident's row and scale factor; its pairs stay
			id := live[rng.Intn(len(live))]
			sf, tput := 1+rng.Intn(2), row()
			c.AddJob(id, sf, tput)
			ref.tput[id], ref.sf[id] = tput, sf
		case k < 11: // cache (or overwrite) a pair's rows
			setPair(pick2())
		case k < 16: // observe one type of a pair, cached or not
			a, b := pick2()
			typ, ta, tb := rng.Intn(numTypes), 0.5+rng.Float64(), 0.5+rng.Float64()
			c.ObservePair(a, b, typ, ta, tb)
			if p, ok := ref.pairs[ref.key(a, b)]; ok {
				if a > b {
					ta, tb = tb, ta
				}
				lo, hi := slices.Clone(p[0]), slices.Clone(p[1])
				lo[typ], hi[typ] = ta, tb
				ref.pairs[ref.key(a, b)] = [2][]float64{lo, hi}
			}
		default: // observe a resident's isolated row
			id := live[rng.Intn(len(live))]
			tput := row()
			c.ObserveJob(id, tput)
			ref.tput[id] = tput
		}
		if op%batch != batch-1 {
			continue
		}
		ids := slices.Clone(live)
		if rng.Intn(4) == 0 { // an ID the cache does not hold
			ids = append(ids, pool+rng.Intn(pool))
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		minGain, maxPairs := []float64{0, 1, 1.05}[rng.Intn(3)], rng.Intn(5)
		got := c.UnitsInto(&slab, ids, minGain, maxPairs)
		if err := unitsIdentical(got, ref.units(ids, minGain, maxPairs)); err != nil {
			t.Fatalf("op %d (ids=%v minGain=%v maxPairs=%d): %v", op, ids, minGain, maxPairs, err)
		}
		queries++
	}
	if c.Len() != len(live) || readds < 50 {
		t.Fatalf("cache holds %d jobs for %d live; %d re-adds", c.Len(), len(live), readds)
	}
	t.Logf("%d ops, %d queries, %d re-adds, %d pairs cached at the end", ops, queries, readds, len(ref.pairs))
}

// TestThroughputCacheRowStability checks that observing a job or pair does
// not mutate the rows of units already handed out (units carry copies), and
// that the observation itself is not lost.
func TestThroughputCacheRowStability(t *testing.T) {
	c := NewThroughputCache(2)
	c.AddJob(1, 1, []float64{1, 2})
	c.AddJob(2, 1, []float64{3, 4})
	c.SetPair(1, 2, []float64{0.6, 1.2}, []float64{1.8, 2.4})

	units := c.Units([]int{1, 2}, 0, 1)
	if len(units) != 3 {
		t.Fatalf("%d units, want 2 singles and the pair", len(units))
	}
	c.ObserveJob(1, []float64{9, 9})
	c.ObservePair(1, 2, 0, 0.1, 0.2)
	if row := units[0].Tput[0]; row[0] != 1 || row[1] != 2 {
		t.Fatalf("isolated row of a handed-out unit changed: %v", row)
	}
	if ta, tb := units[2].Tput[0], units[2].Tput[1]; ta[0] != 0.6 || tb[0] != 1.8 {
		t.Fatalf("pair rows of a handed-out unit changed: %v %v", ta, tb)
	}
	if got := c.JobTput(1); got[0] != 9 {
		t.Fatalf("observe lost: %v", got)
	}
	if gta, _, _ := c.PairTput(1, 2); gta[0] != 0.1 {
		t.Fatalf("pair observe lost: %v", gta)
	}
	again := c.Units([]int{1, 2}, 0, 1)
	if again[0].Tput[0][0] != 9 || again[2].Tput[0][0] != 0.1 {
		t.Fatalf("the next units miss the observations: %v %v", again[0].Tput, again[2].Tput)
	}
}

// TestUnitsCarryStableKeys checks the column-identity contract: units from
// the cache are keyed by external job IDs (JobKey/PairKey), so the same jobs
// produce the same keys regardless of their positions in the active set, and
// a job's key never collides with another's after churn.
func TestUnitsCarryStableKeys(t *testing.T) {
	c := NewThroughputCache(2)
	for id := 10; id <= 13; id++ {
		c.AddJob(id, 1, []float64{1, 2})
	}
	c.SetPair(10, 12, []float64{0.9, 1.8}, []float64{0.9, 1.8})

	keysOf := func(ids []int) map[string]bool {
		out := map[string]bool{}
		for _, u := range c.Units(ids, 1.05, 4) {
			if u.Key == "" {
				t.Fatalf("cache-built unit %v has no key", u.Jobs)
			}
			if out[u.Key] {
				t.Fatalf("duplicate unit key %q", u.Key)
			}
			out[u.Key] = true
		}
		return out
	}

	before := keysOf([]int{10, 11, 12, 13})
	// 11 departs, 14 arrives, positions reshuffle.
	c.RemoveJob(11)
	c.AddJob(14, 1, []float64{3, 1})
	after := keysOf([]int{13, 10, 12, 14})

	for _, want := range []string{JobKey(10), JobKey(12), JobKey(13), PairKey(10, 12)} {
		if !before[want] || !after[want] {
			t.Fatalf("key %q did not survive churn (before=%v after=%v)", want, before[want], after[want])
		}
	}
	if after[JobKey(11)] {
		t.Fatal("departed job's key still present")
	}
	if !after[JobKey(14)] {
		t.Fatal("arrived job's key missing")
	}
	if PairKey(12, 10) != PairKey(10, 12) {
		t.Fatal("PairKey is order-sensitive")
	}
}

// TestUnitKeysFormat holds JobKey and PairKey to their string forms.
func TestUnitKeysFormat(t *testing.T) {
	for _, id := range []int{0, 7, 99, 100, 123456, -5, math.MaxInt64, math.MinInt64} {
		if got, want := JobKey(id), fmt.Sprintf("j%d", id); got != want {
			t.Fatalf("JobKey(%d) = %q, want %q", id, got, want)
		}
		if got, want := PairKey(id, 42), fmt.Sprintf("p%d|%d", min(id, 42), max(id, 42)); got != want {
			t.Fatalf("PairKey(%d, 42) = %q, want %q", id, got, want)
		}
	}
	if got := PairKey(math.MaxInt64, math.MinInt64); got != fmt.Sprintf("p%d|%d", math.MinInt64, math.MaxInt64) {
		t.Fatalf("PairKey of the extremes = %q", got)
	}
}

// referenceUnits is the pre-incremental Units algorithm — a full O(n²)
// rescan of every id pair — kept as the oracle for the incremental
// candidate list.
func referenceUnits(c *ThroughputCache, ids []int, minGain float64, maxPairs int) []Unit {
	units := make([]Unit, 0, len(ids))
	for m, id := range ids {
		tput := c.JobTput(id)
		if tput == nil {
			tput = make([]float64, c.NumTypes())
		}
		units = append(units, Single(m, tput).Keyed(JobKey(id)))
	}
	if maxPairs <= 0 {
		return units
	}
	type scored struct {
		a, b int
		gain float64
	}
	var cands []scored
	for a := 0; a < len(ids); a++ {
		if c.ScaleFactor(ids[a]) > 1 {
			continue
		}
		for b := a + 1; b < len(ids); b++ {
			if c.ScaleFactor(ids[b]) > 1 {
				continue
			}
			if g := c.PairGain(ids[a], ids[b]); g > minGain {
				cands = append(cands, scored{a: a, b: b, gain: g})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		if cands[i].a != cands[j].a {
			return cands[i].a < cands[j].a
		}
		return cands[i].b < cands[j].b
	})
	pairCount := make([]int, len(ids))
	for _, s := range cands {
		if pairCount[s.a] >= maxPairs || pairCount[s.b] >= maxPairs {
			continue
		}
		pairCount[s.a]++
		pairCount[s.b]++
		ta, tb, _ := c.PairTput(ids[s.a], ids[s.b])
		units = append(units, Pair(s.a, s.b, ta, tb).Keyed(PairKey(ids[s.a], ids[s.b])))
	}
	return units
}

func sameUnitList(a, b []Unit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || len(a[i].Jobs) != len(b[i].Jobs) {
			return false
		}
		for k := range a[i].Jobs {
			if a[i].Jobs[k] != b[i].Jobs[k] {
				return false
			}
		}
	}
	return true
}

// TestUnitsIncrementalMatchesScan drives the cache through randomized
// add/remove/observe/pair mutations and checks after every step that the
// incrementally maintained candidate list assembles exactly the units the
// exhaustive rescan would.
func TestUnitsIncrementalMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const numTypes = 3
	c := NewThroughputCache(numTypes)
	randRow := func() []float64 {
		row := make([]float64, numTypes)
		for i := range row {
			row[i] = rng.Float64() * 5
		}
		return row
	}
	var live []int
	nextID := 0
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) < 4:
			sf := 1
			if rng.Intn(8) == 0 {
				sf = 2
			}
			c.AddJob(nextID, sf, randRow())
			live = append(live, nextID)
			nextID++
		case op < 5:
			i := rng.Intn(len(live))
			c.RemoveJob(live[i])
			live = append(live[:i], live[i+1:]...)
		case op < 7:
			c.ObserveJob(live[rng.Intn(len(live))], randRow())
		case op < 9:
			a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			c.SetPair(a, b, randRow(), randRow())
		default:
			a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			c.ObservePair(a, b, rng.Intn(numTypes), rng.Float64()*5, rng.Float64()*5)
		}
		// Query over a random subset, in random order, with varying
		// thresholds and caps.
		ids := append([]int(nil), live...)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		if len(ids) > 2 {
			ids = ids[:2+rng.Intn(len(ids)-2)]
		}
		minGain := []float64{0, 0.5, 1.05}[rng.Intn(3)]
		maxPairs := rng.Intn(4)
		got := c.Units(ids, minGain, maxPairs)
		want := referenceUnits(c, ids, minGain, maxPairs)
		if !sameUnitList(got, want) {
			t.Fatalf("step %d: units diverged from reference (ids=%v minGain=%v maxPairs=%d)\n got: %d units\nwant: %d units",
				step, ids, minGain, maxPairs, len(got), len(want))
		}
	}
}

// BenchmarkThroughputCacheUnits is the regression benchmark for the
// incremental candidate list: one observed-throughput update per reset,
// then a Units call, at a size where the old full rescan's O(n²) pair
// scoring dominated.
func BenchmarkThroughputCacheUnits(b *testing.B) {
	const n, numTypes = 256, 3
	rng := rand.New(rand.NewSource(5))
	row := func() []float64 {
		r := make([]float64, numTypes)
		for i := range r {
			r[i] = 1 + rng.Float64()
		}
		return r
	}
	c := NewThroughputCache(numTypes)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
		c.AddJob(i, 1, row())
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			c.SetPair(i, (i+7*k+1)%n, row(), row())
		}
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ObserveJob(ids[i%n], row())
			if got := c.Units(ids, 1.05, 4); len(got) < n {
				b.Fatal("lost the singles")
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.ObserveJob(ids[i%n], row())
			if got := referenceUnits(c, ids, 1.05, 4); len(got) < n {
				b.Fatal("lost the singles")
			}
		}
	})
}

// pairChurnAllocCeiling bounds TestPairCacheChurnAllocs' objects per cycle.
const pairChurnAllocCeiling = 14

// TestPairCacheChurnAllocs pins the steady-state cost of the space-sharing
// churn a Gavel w/ SS reset sees: at 96 residents with every pair cached,
// one cycle drops the oldest resident, adds a newcomer, caches its pair with
// every resident and assembles the units. It logs the measured count.
func TestPairCacheChurnAllocs(t *testing.T) {
	const n, numTypes, rows = 96, 3, 16
	rng := rand.New(rand.NewSource(9))
	iso := make([][]float64, rows)
	for k := range iso {
		iso[k] = []float64{4 + rng.Float64(), 2 + rng.Float64(), 1 + rng.Float64()}
	}
	// colo[x][y] is job x's row beside job y (by row class).
	colo := make([][][]float64, rows)
	for x := range colo {
		colo[x] = make([][]float64, rows)
		for y := range colo[x] {
			f := 0.5 + 0.4*rng.Float64()
			colo[x][y] = []float64{f * iso[x][0], f * iso[x][1], f * iso[x][2]}
		}
	}
	c := NewThroughputCache(numTypes)
	ids := make([]int, 0, n)
	add := func(id int) {
		c.AddJob(id, 1, iso[id%rows])
		for _, other := range ids {
			c.SetPair(id, other, colo[id%rows][other%rows], colo[other%rows][id%rows])
		}
	}
	for id := 0; id < n; id++ {
		add(id)
		ids = append(ids, id)
	}
	var slab UnitSlab
	next := n
	cycle := func() {
		c.RemoveJob(ids[0])
		copy(ids, ids[1:])
		ids = ids[:n-1]
		add(next)
		ids = append(ids, next)
		next++
		if len(c.UnitsInto(&slab, ids, 1.05, 4)) <= n {
			t.Fatal("no pair became a unit")
		}
	}
	for i := 0; i < 2*n; i++ { // every resident replaced twice: steady state
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if int(c.jobs.n) != n || int(c.pairs.n) != n*(n-1)/2 {
		t.Fatalf("%d job slots and %d pair entries for %d residents: departures' storage not reused",
			c.jobs.n, c.pairs.n, n)
	}
	t.Logf("%.1f objects per churn cycle", allocs)
	if allocs > pairChurnAllocCeiling {
		t.Fatalf("%.1f objects per churn cycle, ceiling %v", allocs, pairChurnAllocCeiling)
	}
}

// TestPairOfUncachedJobIsANoOp checks that SetPair and ObservePair store
// nothing for a job the cache does not hold: no pair outlives its members,
// and none appears when the ID is added later.
func TestPairOfUncachedJobIsANoOp(t *testing.T) {
	c := NewThroughputCache(2)
	c.AddJob(1, 1, []float64{1, 2})
	c.SetPair(1, 9, []float64{0.8, 1.6}, []float64{0.7, 1.4})
	c.SetPair(8, 9, []float64{0.8, 1.6}, []float64{0.7, 1.4})
	c.ObservePair(1, 9, 0, 0.5, 0.5)
	if c.HasPair(1, 9) || c.HasPair(9, 8) {
		t.Fatal("a pair with an uncached member was stored")
	}
	if _, _, ok := c.PairTput(1, 9); ok || c.PairGain(1, 9) != 0 {
		t.Fatal("an uncached pair has rows")
	}
	if c.pairs.n != 0 || c.pairAt != nil {
		t.Fatalf("%d pair entries and an index allocated for no pair", c.pairs.n)
	}
	c.RemoveJob(9) // unknown: nothing to drop
	c.AddJob(9, 1, []float64{2, 1})
	if c.HasPair(1, 9) {
		t.Fatal("the pair appeared once its second member was added")
	}
	if units := c.Units([]int{1, 9}, 0, 4); len(units) != 2 {
		t.Fatalf("%d units, want the two singles", len(units))
	}
}

// TestNegativeMinGainAdmitsOnlyCachedPairs checks that a negative threshold
// makes every cached pair a candidate, a gain-0 one included, and never a
// pair the cache does not hold (one that has no rows to hand out).
func TestNegativeMinGainAdmitsOnlyCachedPairs(t *testing.T) {
	c := NewThroughputCache(2)
	for id := 1; id <= 3; id++ {
		c.AddJob(id, 1, []float64{1, 2})
	}
	c.SetPair(1, 2, []float64{0.6, 1.2}, []float64{0.7, 1.4})
	c.SetPair(2, 3, []float64{0, 0}, []float64{0, 0}) // gain 0
	units := c.Units([]int{1, 2, 3}, -1, 4)
	var keys []string
	for _, u := range units[3:] {
		keys = append(keys, u.Key)
	}
	if want := []string{PairKey(1, 2), PairKey(2, 3)}; !slices.Equal(keys, want) {
		t.Fatalf("pair units %v, want %v", keys, want)
	}
}
