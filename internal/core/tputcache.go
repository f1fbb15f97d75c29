package core

import (
	"cmp"
	"slices"
	"sort"
)

// ThroughputCache maintains the (job × scheduling-unit) effective-throughput
// matrices a policy input is built from, incrementally under job add/remove
// and throughput observations. Building a policy input used to mean
// re-querying every isolated throughput and re-enumerating every candidate
// space-sharing pair on each reset event; with the cache, a reset touches
// only the rows that actually changed and Units assembles the scheduling
// units from cached values.
//
// Jobs are identified by stable external IDs (trace job IDs), not positions,
// so entries survive arbitrary reorderings of the active set. The cache
// stores values pushed by the caller and never invents estimates; pushing is
// what keeps it provider-agnostic.
//
// Storage is slot-indexed, so churn reuses what departures free instead of
// allocating. Each cached job holds a dense slot; a pair is an entry whose
// two rows sit inline in a per-chunk row block. Chunks are never copied, so
// handed-out rows stay put. Pairs are found through a symmetric slot ×
// slot index, allocated at the first SetPair. Pairs exist only between
// cached jobs, and a job's departure frees its pairs.
type ThroughputCache struct {
	numTypes int
	slotOf   map[int]int32      // job id -> slot
	jobs     chunked[cachedJob] // by slot
	freeJobs []int32

	pairs    chunked[pairEntry]
	vals     [][]float64 // per pair chunk: 2·numTypes per entry, the smaller job ID's row first
	freePair int32       // 1 + the first entry RemoveJob freed, 0 = none (a free entry's hi links on)
	dim      int         // the index is dim × dim over job slots
	pairAt   []int32     // 1 + the entry of the pair of slots (s, t) at s·dim+t, 0 = none

	// Incremental pair-candidate state: Units used to rebuild and re-sort
	// the full O(n²) scored candidate list on every call even when nothing
	// changed. Instead, scored holds every cached pair's entry, sorted by
	// (gain desc, entry asc), and is patched lazily from the dirty entries
	// that mutations queue (each flagged, so queued once); a Units call then
	// only filters the pre-sorted list against the requested job set.
	scored []int32
	dirty  []int32

	// Scratch reused by flushDirty and Units; nothing here outlives a call.
	fresh       []int32
	pos         []int32 // slot -> position within the Units call's ids; -1 = not a candidate
	cands, ties []pairCand
	pairCount   []int
}

// pairCand is one pair candidate of a Units call: its members' positions
// within ids (a < b) and its entry.
type pairCand struct{ a, b, entry int32 }

// scoreCmp orders pair entries by decreasing gain, ties by ascending entry,
// making the candidate list deterministic.
func (c *ThroughputCache) scoreCmp(x, y int32) int {
	return cmp.Or(cmp.Compare(c.pairs.at(y).gain, c.pairs.at(x).gain), cmp.Compare(x, y))
}

// cachedJob is one job's isolated row. key is its single-job unit's stable
// identity (JobKey), minted once when the job is added and handed to every
// Unit that Units builds for it.
type cachedJob struct {
	tput        []float64
	scaleFactor int
	key         string
}

// chunkLen is the number of elements one storage chunk holds.
const chunkLen = 128

// chunked is append-only storage in fixed-size chunks that are never
// copied, so an element stays put however far the store grows.
type chunked[T any] struct {
	chunks []*[chunkLen]T
	n      int32
}

func (s *chunked[T]) at(i int32) *T { return &s.chunks[i/chunkLen][i%chunkLen] }

// add appends a zero element and returns its index.
func (s *chunked[T]) add() int32 {
	if int(s.n) == len(s.chunks)*chunkLen {
		s.chunks = append(s.chunks, new([chunkLen]T))
	}
	s.n++
	return s.n - 1
}

// pairEntry is one cached pair: its members' slots (lo holds the smaller job
// ID; -1 when the entry is free), its gain as of the last candidate-list
// patch, and its unit's key (PairKey), minted the first time the pair
// becomes a unit.
type pairEntry struct {
	lo, hi int32
	gain   float64
	key    string
	dirty  bool // queued in ThroughputCache.dirty
}

// NewThroughputCache returns an empty cache over numTypes accelerator types.
func NewThroughputCache(numTypes int) *ThroughputCache {
	return &ThroughputCache{numTypes: numTypes, slotOf: map[int]int32{}}
}

// rows returns an entry's two rows, the smaller job ID's first.
func (c *ThroughputCache) rows(e int32) (lo, hi []float64) {
	nt := c.numTypes
	v := c.vals[e/chunkLen][int(e%chunkLen)*2*nt:]
	return v[:nt:nt], v[nt : 2*nt : 2*nt]
}

// peers returns the index row of a job slot (nil when it has never been
// paired).
func (c *ThroughputCache) peers(slot int32) []int32 {
	if int(slot) >= c.dim {
		return nil
	}
	return c.pairAt[int(slot)*c.dim : (int(slot)+1)*c.dim]
}

// pairOf returns the entry of the pair (a, b), or -1 when it is not cached.
func (c *ThroughputCache) pairOf(a, b int) int32 {
	sa, okA := c.slotOf[a]
	sb, okB := c.slotOf[b]
	if row := c.peers(sa); okA && okB && int(sb) < len(row) {
		return row[sb] - 1
	}
	return -1
}

// markPairDirty queues one pair entry for a candidate-list patch.
func (c *ThroughputCache) markPairDirty(e int32) {
	if p := c.pairs.at(e); !p.dirty {
		p.dirty = true
		c.dirty = push(c.dirty, e)
	}
}

// markJobDirty queues every cached pair involving the job: a new isolated
// throughput row changes all of the job's pair gains.
func (c *ThroughputCache) markJobDirty(slot int32) {
	for _, at := range c.peers(slot) {
		if at != 0 {
			c.markPairDirty(at - 1)
		}
	}
}

// flushDirty patches the sorted candidate list: the k dirty entries' fresh
// gains are re-scored and sorted, stale scores are dropped in one in-place
// compaction, and the fresh run is merged in from the back — O(p + k·log k)
// for p list entries, with only the k dirty gains recomputed (a per-entry
// splice would make one job's departure cost O(n·p), and a full rebuild
// would re-score every pair).
func (c *ThroughputCache) flushDirty() {
	if len(c.dirty) == 0 {
		return
	}
	kept := c.scored[:0]
	for _, e := range c.scored {
		if !c.pairs.at(e).dirty {
			kept = append(kept, e)
		}
	}
	fresh := c.fresh[:0]
	for _, e := range c.dirty {
		p := c.pairs.at(e)
		p.dirty = false
		if p.lo >= 0 { // not freed since it was queued
			p.gain = c.entryGain(e)
			fresh = push(fresh, e)
		}
	}
	c.dirty = c.dirty[:0]
	// scoreCmp is a strict total order (entries are distinct), so the sorted
	// run does not depend on the queue's order or the sort algorithm.
	slices.SortFunc(fresh, c.scoreCmp)
	// Merge the two sorted runs, largest first, into the tail of scored.
	n, k := len(kept), len(fresh)
	scored := extend(kept, n+k)
	for i, j, w := n-1, k-1, n+k-1; j >= 0; w-- {
		if i >= 0 && c.scoreCmp(fresh[j], scored[i]) < 0 {
			scored[w], i = scored[i], i-1
		} else {
			scored[w], j = fresh[j], j-1
		}
	}
	c.scored, c.fresh = scored, fresh[:0]
}

// push appends v, doubling the capacity when s is full.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, 2*len(s)+8), s...)
	}
	return append(s, v)
}

// extend returns s resized to n elements with its contents kept,
// reallocating only when its capacity falls short: exactly on first use,
// then at least doubling.
func extend[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(make([]T, 0, max(n, 2*cap(s))), s...)
	}
	return s[:n]
}

// NumTypes returns the accelerator-type count the cache was built for.
func (c *ThroughputCache) NumTypes() int { return c.numTypes }

// Len returns the number of cached jobs.
func (c *ThroughputCache) Len() int { return len(c.slotOf) }

// Has reports whether the job is cached.
func (c *ThroughputCache) Has(id int) bool { _, ok := c.slotOf[id]; return ok }

// IDs returns the cached job IDs in ascending order.
func (c *ThroughputCache) IDs() []int {
	ids := make([]int, 0, len(c.slotOf))
	for id := range c.slotOf {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// AddJob inserts (or overwrites) a job's isolated throughput row. The slice
// is copied, into the row of a slot a departure freed when there is one.
func (c *ThroughputCache) AddJob(id, scaleFactor int, tput []float64) {
	if scaleFactor < 1 {
		scaleFactor = 1
	}
	slot, ok := c.slotOf[id]
	if !ok {
		if n := len(c.freeJobs); n > 0 {
			slot, c.freeJobs = c.freeJobs[n-1], c.freeJobs[:n-1]
		} else {
			slot = c.jobs.add()
		}
		c.slotOf[id] = slot
		c.jobs.at(slot).key = JobKey(id)
	}
	j := c.jobs.at(slot)
	j.tput = append(j.tput[:0], tput...)
	j.scaleFactor = scaleFactor
	c.markJobDirty(slot)
}

// RemoveJob drops a job and every pair involving it.
func (c *ThroughputCache) RemoveJob(id int) {
	slot, ok := c.slotOf[id]
	if !ok {
		return
	}
	delete(c.slotOf, id)
	for peer, at := range c.peers(slot) {
		if at == 0 {
			continue
		}
		e := at - 1
		p := c.pairs.at(e)
		p.lo, p.hi, p.key, c.freePair = -1, c.freePair, "", e+1
		c.pairAt[peer*c.dim+int(slot)], c.pairAt[int(slot)*c.dim+peer] = 0, 0
		c.markPairDirty(e)
	}
	c.freeJobs = append(c.freeJobs, slot)
}

// ObserveJob overwrites a job's isolated throughput row (a measured update)
// in place. Units hand out copies, so no unit sees the change; a JobTput
// result does.
func (c *ThroughputCache) ObserveJob(id int, tput []float64) {
	slot, ok := c.slotOf[id]
	if !ok {
		return
	}
	j := c.jobs.at(slot)
	j.tput = append(j.tput[:0], tput...)
	c.markJobDirty(slot)
}

// JobTput returns the cached isolated throughput row (shared, read-only,
// overwritten by the job's next ObserveJob or AddJob, and by the AddJob that
// reuses its slot after RemoveJob), or nil when the job is unknown.
func (c *ThroughputCache) JobTput(id int) []float64 {
	if slot, ok := c.slotOf[id]; ok {
		return c.jobs.at(slot).tput
	}
	return nil
}

// ScaleFactor returns the cached scale factor (0 when unknown).
func (c *ThroughputCache) ScaleFactor(id int) int {
	if slot, ok := c.slotOf[id]; ok {
		return c.jobs.at(slot).scaleFactor
	}
	return 0
}

// SetPair records the colocated throughput rows of a pair: ta belongs to
// job a, tb to job b. Both rows are copied (cut or zero-padded to the type
// count), into an entry a departure freed when there is one. It is a no-op
// unless both jobs are cached: a pair lives only as long as its members.
func (c *ThroughputCache) SetPair(a, b int, ta, tb []float64) {
	sa, okA := c.slotOf[a]
	sb, okB := c.slotOf[b]
	if a == b || !okA || !okB {
		return
	}
	if a > b {
		sa, sb, ta, tb = sb, sa, tb, ta
	}
	if c.dim < int(c.jobs.n) {
		c.growIndex()
	}
	e := c.pairAt[int(sa)*c.dim+int(sb)] - 1
	if e < 0 {
		e = c.newEntry()
		p := c.pairs.at(e)
		p.lo, p.hi = sa, sb
		c.pairAt[int(sa)*c.dim+int(sb)], c.pairAt[int(sb)*c.dim+int(sa)] = e+1, e+1
	}
	lo, hi := c.rows(e)
	clear(lo[copy(lo, ta):])
	clear(hi[copy(hi, tb):])
	c.markPairDirty(e)
}

// growIndex resizes the pair index to cover every job slot, at least
// doubling it.
func (c *ThroughputCache) growIndex() {
	dim := max(2*c.dim, int(c.jobs.n))
	at := make([]int32, dim*dim)
	for s := 0; s < c.dim; s++ {
		copy(at[s*dim:], c.pairAt[s*c.dim:(s+1)*c.dim])
	}
	c.dim, c.pairAt = dim, at
}

// newEntry returns a free pair entry, refilling a freed one when there is
// one and opening a chunk when every chunk is full.
func (c *ThroughputCache) newEntry() int32 {
	if e := c.freePair - 1; e >= 0 {
		c.freePair = c.pairs.at(e).hi
		return e
	}
	e := c.pairs.add()
	if e%chunkLen == 0 {
		c.vals = append(c.vals, make([]float64, chunkLen*2*c.numTypes))
	}
	return e
}

// HasPair reports whether the pair has a cached row.
func (c *ThroughputCache) HasPair(a, b int) bool { return c.pairOf(a, b) >= 0 }

// PairTput returns the cached colocated throughputs for (a, b), in that
// argument order (shared, read-only, overwritten by the pair's next
// ObservePair or SetPair, and by the SetPair that refills its entry after
// either member's RemoveJob).
func (c *ThroughputCache) PairTput(a, b int) (ta, tb []float64, ok bool) {
	e := c.pairOf(a, b)
	if e < 0 {
		return nil, nil, false
	}
	lo, hi := c.rows(e)
	if a > b {
		return hi, lo, true
	}
	return lo, hi, true
}

// ObservePair overwrites one type's entry of a cached pair with a measured
// value (ta for job a, tb for job b), in place: Units hand out copies. It is
// a no-op for a pair the cache does not hold.
func (c *ThroughputCache) ObservePair(a, b, typ int, ta, tb float64) {
	e := c.pairOf(a, b)
	if e < 0 || typ < 0 || typ >= c.numTypes {
		return
	}
	if a > b {
		ta, tb = tb, ta
	}
	lo, hi := c.rows(e)
	lo[typ], hi[typ] = ta, tb
	c.markPairDirty(e)
}

// PairGain returns the pair's best combined normalized throughput across
// types: max_t ta[t]/isoA[t] + tb[t]/isoB[t]. A gain above 1 means space
// sharing beats time sharing somewhere; 0 when the pair is unknown.
func (c *ThroughputCache) PairGain(a, b int) float64 {
	if e := c.pairOf(a, b); e >= 0 {
		return c.entryGain(e)
	}
	return 0
}

// entryGain is PairGain of a cached pair entry.
func (c *ThroughputCache) entryGain(e int32) float64 {
	p := c.pairs.at(e)
	lo, hi := c.rows(e)
	isoLo, isoHi := c.jobs.at(p.lo).tput, c.jobs.at(p.hi).tput
	best := 0.0
	for t := 0; t < c.numTypes; t++ {
		ia, ib := isoLo[t], isoHi[t]
		if ia > 0 && ib > 0 {
			if g := lo[t]/ia + hi[t]/ib; g > best {
				best = g
			}
		}
	}
	return best
}

// Units assembles the scheduling units for the given job IDs: the single-job
// unit of ids[m] at index m, followed by cached pair units whose gain
// exceeds minGain, in decreasing gain order (ties broken by position for
// determinism), capped at maxPairs pairs per job. Unit.Jobs indices refer to
// positions within ids, matching the policy input contract. Unknown IDs get
// an all-zero throughput row rather than a panic.
//
// Candidates come from the incrementally maintained scored list (see
// flushDirty), so a call after k mutations re-scores only the k dirty
// pairs (one O(p) compaction-merge over the p cached entries) rather than
// all O(n²) id pairs. Only cached pairs are candidates, so a negative
// minGain admits every cached pair and no other.
//
// Every unit carries its stable identity (JobKey for singles, PairKey for
// pairs), giving the LP columns built over these units a deterministic,
// job-ID-keyed ordering that survives arrivals and departures — the handle
// policy.SolveContext uses to remap cached simplex bases across job-set
// changes.
// Units is UnitsInto over a slab of its own, so the result is the caller's.
func (c *ThroughputCache) Units(ids []int, minGain float64, maxPairs int) []Unit {
	return c.UnitsInto(new(UnitSlab), ids, minGain, maxPairs)
}

// UnitSlab is the storage of one UnitsInto result (units, member lists, row
// headers, row copies), overwritten by the next UnitsInto into it.
type UnitSlab struct {
	units []Unit
	jobs  []int
	rows  [][]float64
	vals  []float64
}

// UnitsInto is Units written into slab. The rows are copies, so a later
// throughput observation does not reach units already handed out.
func (c *ThroughputCache) UnitsInto(slab *UnitSlab, ids []int, minGain float64, maxPairs int) []Unit {
	var cands []pairCand
	if maxPairs > 0 && c.pairAt != nil {
		cands = c.pairCandidates(ids, minGain, maxPairs)
	}
	members, nt := len(ids)+2*len(cands), c.numTypes
	slab.units = extend(slab.units, len(ids)+len(cands))
	slab.jobs = extend(slab.jobs, members)
	slab.rows = extend(slab.rows, members)
	slab.vals = extend(slab.vals, members*nt)
	units, jobs, rows := slab.units, slab.jobs, slab.rows
	row := func(at int, src []float64) { // a copy of src, zero-padded
		r := slab.vals[at*nt : (at+1)*nt : (at+1)*nt]
		clear(r[copy(r, src):])
		rows[at] = r
	}
	for m, id := range ids {
		jobs[m] = m
		u := &units[m]
		u.Jobs = jobs[m : m+1 : m+1]
		u.Tput = rows[m : m+1 : m+1]
		if slot, ok := c.slotOf[id]; ok {
			j := c.jobs.at(slot)
			row(m, j.tput)
			u.Key = j.key
		} else {
			row(m, nil)
			u.Key = JobKey(id)
		}
	}
	for i, s := range cands {
		at := len(ids) + 2*i
		p := c.pairs.at(s.entry)
		lo, hi := c.rows(s.entry)
		jobs[at], jobs[at+1] = int(s.a), int(s.b)
		if ids[s.a] > ids[s.b] {
			row(at, hi)
			row(at+1, lo)
		} else {
			row(at, lo)
			row(at+1, hi)
		}
		if p.key == "" {
			p.key = PairKey(ids[s.a], ids[s.b])
		}
		u := &units[len(ids)+i]
		u.Jobs = jobs[at : at+2 : at+2]
		u.Tput = rows[at : at+2 : at+2]
		u.Key = p.key
	}
	return units
}

// grow returns s resized to n elements (contents unspecified), reallocating
// only when its capacity falls short: exactly on first use, then with a
// quarter of headroom.
func grow[T any](s []T, n int) []T {
	switch {
	case cap(s) >= n:
		return s[:n]
	case cap(s) == 0:
		return make([]T, n)
	}
	return make([]T, n, n+n/4)
}

// pairCandidates selects the pair units of a Units call: candidates above
// minGain in decreasing gain order (ties by position), capped at maxPairs
// per job. It walks the incrementally maintained, pre-sorted candidate list
// through a slot -> position array, one run of equal gains at a time, so only
// a run is ever sorted and only kept pairs are stored: O(matches) after the
// dirty-entry patch, instead of recomputing O(n²) gains. The result is the
// cache's scratch, valid until the next call.
func (c *ThroughputCache) pairCandidates(ids []int, minGain float64, maxPairs int) []pairCand {
	c.flushDirty()
	pos := extend(c.pos, int(c.jobs.n))
	for i := range pos {
		pos[i] = -1
	}
	for m, id := range ids {
		if slot, ok := c.slotOf[id]; ok && c.jobs.at(slot).scaleFactor <= 1 {
			pos[slot] = int32(m)
		}
	}
	c.pairCount = grow(c.pairCount, len(ids))
	pairCount := c.pairCount
	clear(pairCount)
	kept, ties, scored := c.cands[:0], c.ties, c.scored
	for i := 0; i < len(scored) && c.pairs.at(scored[i]).gain > minGain; { // sorted by decreasing gain
		ties = ties[:0]
		for gain := c.pairs.at(scored[i]).gain; i < len(scored) && c.pairs.at(scored[i]).gain == gain; i++ {
			p := c.pairs.at(scored[i])
			if a, b := pos[p.lo], pos[p.hi]; a >= 0 && b >= 0 {
				ties = push(ties, pairCand{a: min(a, b), b: max(a, b), entry: scored[i]})
			}
		}
		// Positions are distinct, so this is a strict total order and the
		// run's order does not depend on the sort algorithm.
		slices.SortFunc(ties, func(x, y pairCand) int {
			return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
		})
		for _, s := range ties {
			if pairCount[s.a] >= maxPairs || pairCount[s.b] >= maxPairs {
				continue
			}
			pairCount[s.a]++
			pairCount[s.b]++
			kept = push(kept, s)
		}
	}
	c.pos, c.cands, c.ties = pos, kept[:0], ties[:0]
	return kept
}
