package core

import (
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
type ThroughputCache struct {
	numTypes int
	jobs     map[int]*cachedJob
	pairs    map[[2]int]*cachedPair
	// Incremental pair-candidate state: Units used to rebuild and re-sort
	// the full O(n²) scored candidate list on every call even when nothing
	// changed. Instead, scored holds every cached pair with positive gain,
	// sorted by (gain desc, pair key asc), and is patched lazily from the
	// dirty-pair set that mutations maintain; a Units call then only
	// filters the pre-sorted list against the requested job set.
	peers    map[int]map[int]bool // job id -> peer ids with a cached pair
	scored   []pairScore
	inScored map[[2]int]float64 // exact gain each scored entry carries
	dirty    map[[2]int]bool

	spare []*cachedPair // entries RemoveJob freed, for SetPair to refill

	// Scratch reused by flushDirty and Units; nothing here outlives a call.
	fresh, kept []pairScore
	pos         map[int]int
	cands       []pairCand
	pairCount   []int
}

// pairCand is one pair candidate of a Units call, by position within ids.
type pairCand struct {
	a, b int
	gain float64
}

// pairScore is one entry of the sorted candidate list.
type pairScore struct {
	key  [2]int
	gain float64
}

// scoreLess orders candidates by decreasing gain, ties by ascending pair
// key, making the list deterministic and binary-searchable.
func scoreLess(x, y pairScore) bool {
	if x.gain != y.gain {
		return x.gain > y.gain
	}
	if x.key[0] != y.key[0] {
		return x.key[0] < y.key[0]
	}
	return x.key[1] < y.key[1]
}

// cachedJob is one job's isolated row. key is its single-job unit's stable
// identity (JobKey), minted once when the job is added and handed to every
// Unit that Units builds for it.
type cachedJob struct {
	tput        []float64
	scaleFactor int
	key         string
}

// cachedPair stores the per-type colocated throughputs of a pair, with `lo`
// the member with the smaller job ID, and the pair unit's key (PairKey).
type cachedPair struct {
	lo, hi []float64
	key    string
}

// NewThroughputCache returns an empty cache over numTypes accelerator types.
func NewThroughputCache(numTypes int) *ThroughputCache {
	return &ThroughputCache{
		numTypes: numTypes,
		jobs:     map[int]*cachedJob{},
		pairs:    map[[2]int]*cachedPair{},
		peers:    map[int]map[int]bool{},
		inScored: map[[2]int]float64{},
		dirty:    map[[2]int]bool{},
	}
}

// markPairDirty queues one pair for a candidate-list patch.
func (c *ThroughputCache) markPairDirty(key [2]int) { c.dirty[key] = true }

// markJobDirty queues every cached pair involving the job: a new isolated
// throughput row changes all of the job's pair gains.
func (c *ThroughputCache) markJobDirty(id int) {
	for peer := range c.peers[id] {
		c.dirty[pairIDKey(id, peer)] = true
	}
}

// flushDirty patches the sorted candidate list: the k dirty pairs' fresh
// gains are re-scored and sorted, stale entries are dropped in one
// compaction pass, and the two sorted runs are merged — O(p + k·log k) for
// p list entries, with only the k dirty gains recomputed (a per-entry
// splice would make one job's departure cost O(n·p), and a full rebuild
// would re-score every pair).
func (c *ThroughputCache) flushDirty() {
	if len(c.dirty) == 0 {
		return
	}
	fresh := c.fresh[:0]
	for key := range c.dirty {
		delete(c.inScored, key)
		if g := c.PairGain(key[0], key[1]); g > 0 {
			fresh = append(fresh, pairScore{key: key, gain: g})
			c.inScored[key] = g
		}
	}
	// scoreLess is a strict total order (keys are distinct), so the sorted
	// run does not depend on the map's iteration order or the sort algorithm.
	slices.SortFunc(fresh, func(x, y pairScore) int {
		switch {
		case scoreLess(x, y):
			return -1
		case scoreLess(y, x):
			return 1
		}
		return 0
	})
	kept := c.kept[:0]
	for _, s := range c.scored {
		if !c.dirty[s.key] {
			kept = append(kept, s)
		}
	}
	// Merge the two sorted runs back into scored.
	c.scored = c.scored[:0]
	i, j := 0, 0
	for i < len(kept) && j < len(fresh) {
		if scoreLess(kept[i], fresh[j]) {
			c.scored = append(c.scored, kept[i])
			i++
		} else {
			c.scored = append(c.scored, fresh[j])
			j++
		}
	}
	c.scored = append(c.scored, kept[i:]...)
	c.scored = append(c.scored, fresh[j:]...)
	c.fresh, c.kept = fresh[:0], kept[:0]
	clear(c.dirty)
}

// NumTypes returns the accelerator-type count the cache was built for.
func (c *ThroughputCache) NumTypes() int { return c.numTypes }

// Len returns the number of cached jobs.
func (c *ThroughputCache) Len() int { return len(c.jobs) }

// Has reports whether the job is cached.
func (c *ThroughputCache) Has(id int) bool { _, ok := c.jobs[id]; return ok }

// IDs returns the cached job IDs in ascending order.
func (c *ThroughputCache) IDs() []int {
	ids := make([]int, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// AddJob inserts (or overwrites) a job's isolated throughput row. The slice
// is copied.
func (c *ThroughputCache) AddJob(id, scaleFactor int, tput []float64) {
	if scaleFactor < 1 {
		scaleFactor = 1
	}
	c.jobs[id] = &cachedJob{
		tput: append([]float64(nil), tput...), scaleFactor: scaleFactor,
		key: JobKey(id),
	}
	c.markJobDirty(id)
}

// RemoveJob drops a job and every pair involving it.
func (c *ThroughputCache) RemoveJob(id int) {
	if _, ok := c.jobs[id]; !ok {
		return
	}
	delete(c.jobs, id)
	for peer := range c.peers[id] {
		key := pairIDKey(id, peer)
		c.spare = append(c.spare, c.pairs[key])
		delete(c.pairs, key)
		delete(c.peers[peer], id)
		c.markPairDirty(key)
	}
	delete(c.peers, id)
}

// ObserveJob overwrites a job's isolated throughput row (a measured update)
// in place. Units hand out copies, so no unit sees the change; a JobTput
// result does.
func (c *ThroughputCache) ObserveJob(id int, tput []float64) {
	j, ok := c.jobs[id]
	if !ok {
		return
	}
	j.tput = append(j.tput[:0], tput...)
	c.markJobDirty(id)
}

// JobTput returns the cached isolated throughput row (shared, read-only,
// overwritten by the next ObserveJob), or nil when the job is unknown.
func (c *ThroughputCache) JobTput(id int) []float64 {
	if j, ok := c.jobs[id]; ok {
		return j.tput
	}
	return nil
}

// ScaleFactor returns the cached scale factor (0 when unknown).
func (c *ThroughputCache) ScaleFactor(id int) int {
	if j, ok := c.jobs[id]; ok {
		return j.scaleFactor
	}
	return 0
}

func pairIDKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// SetPair records the colocated throughput rows of a pair: ta belongs to
// job a, tb to job b. Both slices are copied, into an entry a departure
// freed when there is one.
func (c *ThroughputCache) SetPair(a, b int, ta, tb []float64) {
	if a == b {
		return
	}
	key := pairIDKey(a, b)
	if a > b {
		ta, tb = tb, ta
	}
	p := c.pairs[key]
	if p == nil {
		if n := len(c.spare); n > 0 {
			p, c.spare = c.spare[n-1], c.spare[:n-1]
		} else {
			p = new(cachedPair)
		}
		p.key = PairKey(a, b)
		c.pairs[key] = p
	}
	p.lo = append(p.lo[:0], ta...)
	p.hi = append(p.hi[:0], tb...)
	if c.peers[a] == nil {
		c.peers[a] = map[int]bool{}
	}
	if c.peers[b] == nil {
		c.peers[b] = map[int]bool{}
	}
	c.peers[a][b], c.peers[b][a] = true, true
	c.markPairDirty(key)
}

// HasPair reports whether the pair has a cached row.
func (c *ThroughputCache) HasPair(a, b int) bool {
	_, ok := c.pairs[pairIDKey(a, b)]
	return ok
}

// PairTput returns the cached colocated throughputs for (a, b), in that
// argument order (shared, read-only, overwritten by ObservePair).
func (c *ThroughputCache) PairTput(a, b int) (ta, tb []float64, ok bool) {
	p, ok := c.pairs[pairIDKey(a, b)]
	if !ok {
		return nil, nil, false
	}
	if a > b {
		return p.hi, p.lo, true
	}
	return p.lo, p.hi, true
}

// ObservePair overwrites one type's entry of a cached pair with a measured
// value (ta for job a, tb for job b), in place: Units hand out copies.
func (c *ThroughputCache) ObservePair(a, b, typ int, ta, tb float64) {
	key := pairIDKey(a, b)
	p, ok := c.pairs[key]
	if !ok || typ < 0 || typ >= c.numTypes {
		return
	}
	if a > b {
		ta, tb = tb, ta
	}
	p.lo[typ], p.hi[typ] = ta, tb
	c.markPairDirty(key)
}

// PairGain returns the pair's best combined normalized throughput across
// types: max_t ta[t]/isoA[t] + tb[t]/isoB[t]. A gain above 1 means space
// sharing beats time sharing somewhere; 0 when the pair or either job is
// unknown.
func (c *ThroughputCache) PairGain(a, b int) float64 {
	ta, tb, ok := c.PairTput(a, b)
	if !ok {
		return 0
	}
	ja, jb := c.jobs[a], c.jobs[b]
	if ja == nil || jb == nil {
		return 0
	}
	best := 0.0
	for t := 0; t < c.numTypes; t++ {
		ia, ib := ja.tput[t], jb.tput[t]
		if ia > 0 && ib > 0 {
			if g := ta[t]/ia + tb[t]/ib; g > best {
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
// all O(n²) id pairs; a negative minGain takes the legacy exhaustive scan,
// whose semantics (unknown pairs count as gain 0) the list intentionally
// does not reproduce.
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
	if maxPairs > 0 && len(c.pairs) > 0 {
		cands = c.pairCandidates(ids, minGain, maxPairs)
	}
	members, nt := len(ids)+2*len(cands), c.numTypes
	slab.units = grow(slab.units, len(ids)+len(cands))
	slab.jobs = grow(slab.jobs, members)
	slab.rows = grow(slab.rows, members)
	slab.vals = grow(slab.vals, members*nt)
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
		if j, ok := c.jobs[id]; ok {
			row(m, j.tput)
			u.Key = j.key
		} else {
			row(m, nil)
			u.Key = JobKey(id)
		}
	}
	for i, s := range cands {
		at := len(ids) + 2*i
		p := c.pairs[pairIDKey(ids[s.a], ids[s.b])]
		jobs[at], jobs[at+1] = s.a, s.b
		if ids[s.a] > ids[s.b] {
			row(at, p.hi)
			row(at+1, p.lo)
		} else {
			row(at, p.lo)
			row(at+1, p.hi)
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
// per job. The result is the cache's scratch, valid until the next call.
func (c *ThroughputCache) pairCandidates(ids []int, minGain float64, maxPairs int) []pairCand {
	cands := c.cands[:0]
	if minGain < 0 {
		// A negative threshold admits pairs the cache has never seen
		// (gain 0), which the candidate list deliberately excludes; keep
		// the exhaustive legacy scan for that semantic corner.
		for a := 0; a < len(ids); a++ {
			if c.ScaleFactor(ids[a]) > 1 {
				continue
			}
			for b := a + 1; b < len(ids); b++ {
				if c.ScaleFactor(ids[b]) > 1 {
					continue
				}
				if g := c.PairGain(ids[a], ids[b]); g > minGain {
					cands = append(cands, pairCand{a: a, b: b, gain: g})
				}
			}
		}
	} else {
		// Filter the incrementally maintained, pre-sorted candidate list
		// against the requested job set: O(matches) after the dirty-pair
		// patch, instead of recomputing O(n²) gains.
		c.flushDirty()
		if c.pos == nil {
			c.pos = make(map[int]int, len(ids))
		}
		pos := c.pos
		clear(pos)
		for m, id := range ids {
			pos[id] = m
		}
		for i := range c.scored {
			s := &c.scored[i]
			if s.gain <= minGain {
				break // sorted by decreasing gain
			}
			a, ok := pos[s.key[0]]
			if !ok || c.ScaleFactor(s.key[0]) > 1 {
				continue
			}
			b, ok := pos[s.key[1]]
			if !ok || c.ScaleFactor(s.key[1]) > 1 {
				continue
			}
			if a > b {
				a, b = b, a
			}
			cands = append(cands, pairCand{a: a, b: b, gain: s.gain})
		}
	}
	// A strict total order (positions are distinct), so the result does not
	// depend on the sort algorithm.
	slices.SortFunc(cands, func(x, y pairCand) int {
		switch {
		case x.gain != y.gain:
			if x.gain > y.gain {
				return -1
			}
			return 1
		case x.a != y.a:
			return x.a - y.a
		}
		return x.b - y.b
	})
	c.pairCount = grow(c.pairCount, len(ids))
	pairCount := c.pairCount
	for i := range pairCount {
		pairCount[i] = 0
	}
	kept := cands[:0]
	for _, s := range cands {
		if pairCount[s.a] >= maxPairs || pairCount[s.b] >= maxPairs {
			continue
		}
		pairCount[s.a]++
		pairCount[s.b]++
		kept = append(kept, s)
	}
	c.cands = cands[:0]
	return kept
}
