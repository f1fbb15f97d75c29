package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"gavel/internal/obs"
)

// passCfg is everything one pass of a workload may depend on. The program
// under test never sees the seed, only the inputs generated from it.
type passCfg struct {
	seed   int64
	scale  float64 // 1 = the sized workload; the warm-up runs at 1/4, the smoke test at 1/20
	traced bool
	dir    string // scratch directory for journals, removed by the caller
}

// pass is one prepared (set-up done, deployment running) execution of a
// workload. run is the measured region; finish tears the deployment down
// and reports what the pass saw, and is called even when run failed.
type pass interface {
	run() error
	finish() (*passOut, error)
}

type workloadDef struct {
	name    string
	prepare func(passCfg) (pass, error)
}

// passOut is what a finished pass reports. roundMs[i] is the wall time of
// scheduling round i and reset[i] whether at least one policy solve ran in
// it; passes of one seed are deterministic, so index i names the same event
// in every pass.
type passOut struct {
	roundMs  []float64
	reset    []bool
	digest   string
	ops      int      // rounds + submissions + recoveries attempted
	failures []string // one line per failed operation
	// layer holds per-layer metrics by name: the counts every pass can
	// produce cheaply, plus timings when the pass was traced.
	layer   map[string]float64
	spans   []span
	program []obs.Span
	t0      time.Time
}

func (o *passOut) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// measured is one pass with the harness's own measurements around it.
type measured struct {
	out         *passOut
	setupS      float64
	wallS       float64
	allocMB     float64
	cpuS        float64
	gcCycles    float64
	gcPauseMs   float64
	mallocsK    float64
	heapSysMB   float64
	calibBefore float64
}

// runPass prepares, measures and tears down one pass.
func runPass(def workloadDef, cfg passCfg, calib bool) (*measured, error) {
	m := &measured{}
	if calib {
		m.calibBefore = calibSpin()
	}
	start := time.Now()
	p, err := def.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	m.setupS = time.Since(start).Seconds()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	start = time.Now()
	runErr := p.run()
	m.wallS = time.Since(start).Seconds()
	m.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	m.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m.gcCycles = float64(after.NumGC - before.NumGC)
	m.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m.mallocsK = float64(after.Mallocs-before.Mallocs) / 1e3
	m.heapSysMB = float64(after.HeapSys) / (1 << 20)

	out, finErr := p.finish()
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", def.name, runErr)
	}
	if finErr != nil {
		return nil, fmt.Errorf("%s: teardown: %w", def.name, finErr)
	}
	m.out = out
	return m, nil
}

// runBudget is how long one workload's run may take before it stops
// starting further passes (the benchmark driver allows a run 180 s).
const runBudget = 140 * time.Second

type runOpts struct {
	seed      int64
	passes    int     // measured passes (the second one is the traced pass when traced)
	scale     float64 // workload size factor
	traced    bool
	calib     bool   // run the calibration spins (measurement runs only)
	traceFile string // span file to write ("" = none)
	dir       string // scratch directory
	golden    *goldenFile
}

// report is one workload's result: the metrics of the requested kind plus
// the verdict on its outputs.
type report struct {
	workload string
	// e2e holds the end-to-end metrics (untraced passes); layer the
	// per-layer metrics, nil unless the run was traced.
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int // sample count behind each percentile
	attempted int
	failures  []string // one line per failed operation
	calibMs   []float64
	passWalls []float64
	cutAt     int         // > 0: measured passes were cut to this many to stay inside runBudget
	selfTable []string    // span self-time rows of the traced pass
	golden    goldenEntry // what this run would pin
}

func (r *report) failed() int { return len(r.failures) }

// runWorkload executes the run protocol for one workload: warm-up passes at
// quarter size (so heap growth, gob type registries and page faults are
// paid before anything is measured), then o.passes identical measured
// passes. Passes must agree on their result digest. End-to-end metrics come
// from the untraced passes only.
func runWorkload(def workloadDef, o runOpts) (*report, error) {
	rep := &report{workload: def.name, e2e: map[string]float64{}, samples: map[string]int{}}
	base := runtime.NumGoroutine()
	deadline := time.Now().Add(runBudget)

	// Set-up is paid several times in one run so it can be reported
	// robustly: the warm-up (its own set-up plus the quarter-size pass)
	// three to six times — more often the shorter it is, 3 s in all —
	// keeping the fastest; each measured pass's set-up below, keeping the
	// median.
	warmS, warmTotal := math.Inf(1), 0.0
	for i := 0; i < 3 || (i < 6 && warmTotal < 3); i++ {
		warm, err := runPass(def, passCfg{seed: o.seed, scale: o.scale / 4, dir: o.dir}, false)
		if err != nil {
			return nil, err
		}
		rep.failures = append(rep.failures, warm.out.failures...)
		warmS = math.Min(warmS, warm.setupS+warm.wallS)
		warmTotal += warm.setupS + warm.wallS
	}

	var untraced []*measured
	var traced *measured
	goroutinesMax := 0
	for i := 0; i < o.passes; i++ {
		cfg := passCfg{seed: o.seed, scale: o.scale, dir: o.dir}
		cfg.traced = o.traced && i == 1
		// The reference box has stretches where everything runs several
		// times slower. A run must still end inside its time limit, so once
		// what the caller needs is in hand (one untraced pass, and the traced
		// one if asked for) further passes start only if they fit.
		if n := len(rep.passWalls); n > 0 && !(o.traced && i == 1) &&
			time.Until(deadline).Seconds() < 1.2*rep.passWalls[n-1] {
			rep.cutAt = n
			break
		}
		m, err := runPass(def, cfg, o.calib)
		if err != nil {
			return nil, err
		}
		rep.calibMs = append(rep.calibMs, m.calibBefore)
		rep.passWalls = append(rep.passWalls, m.wallS)
		rep.attempted += m.out.ops
		rep.failures = append(rep.failures, m.out.failures...)
		if g := int(m.out.layer["runtime.goroutines_max"]); g > goroutinesMax {
			goroutinesMax = g
		}
		// Hygiene: a pass must give back every goroutine it started (shard
		// daemons, their connections, the rpc clients).
		if n := settleGoroutines(base); n > base {
			rep.failures = append(rep.failures, fmt.Sprintf("pass %d leaked %d goroutines", i, n-base))
		}
		if cfg.traced {
			traced = m
		} else {
			untraced = append(untraced, m)
		}
	}
	if o.calib {
		rep.calibMs = append(rep.calibMs, calibSpin())
	}

	all := untraced
	if traced != nil {
		all = append(append([]*measured(nil), untraced...), traced)
	}
	for _, m := range all[1:] {
		if m.out.digest != all[0].out.digest {
			rep.failures = append(rep.failures, fmt.Sprintf("result digest differs between passes: %s vs %s", all[0].out.digest, m.out.digest))
		}
	}

	// End-to-end metrics: fastest untraced pass for the totals, per-event
	// minimum across the untraced passes for the round percentiles.
	if len(untraced) > 0 {
		fastest := untraced[0]
		var setups []float64
		var rounds [][]float64
		for _, m := range untraced {
			if m.wallS < fastest.wallS {
				fastest = m
			}
			setups = append(setups, m.setupS)
			rounds = append(rounds, m.out.roundMs)
		}
		minRounds := eventMin(rounds)
		var resets []float64
		for i, r := range fastest.out.reset {
			if r && i < len(minRounds) {
				resets = append(resets, minRounds[i])
			}
		}
		rep.e2e["setup_s"] = median(setups) + warmS
		rep.e2e["wall_s"] = fastest.wallS
		rep.e2e["alloc_mb"] = fastest.allocMB
		rep.e2e["reset_ms_p50"] = percentile(resets, 50)
		rep.e2e["reset_ms_p95"] = percentile(resets, 95)
		rep.samples["reset_ms_p50"] = len(resets)
		rep.samples["reset_ms_p95"] = len(resets)
	}

	rep.golden = goldenFrom(all[0].out)
	if traced != nil {
		rep.golden = goldenFrom(traced.out)
	}
	if o.golden != nil {
		rep.failures = append(rep.failures, o.golden.check(def.name, rep.golden, traced != nil)...)
	}

	if traced != nil {
		layer := traced.out.layer
		layer["round_ms_p50"] = percentile(traced.out.roundMs, 50)
		layer["runtime.cpu_s"] = traced.cpuS
		layer["runtime.gc_cycles"] = traced.gcCycles
		layer["runtime.gc_pause_ms_sum"] = traced.gcPauseMs
		layer["runtime.mallocs_k"] = traced.mallocsK
		layer["runtime.peak_heap_mb"] = traced.heapSysMB
		layer["runtime.peak_rss_mb"] = peakRSSMB()
		layer["runtime.goroutines_max"] = float64(goroutinesMax)
		layer["runtime.calib_ms"] = median(rep.calibMs)
		layer["runtime.passes_run"] = float64(len(all))
		layer["obs.spans_recorded"] = float64(len(traced.out.spans) + len(traced.out.program))
		if len(untraced) > 0 {
			layer["obs.trace_overhead_pct"] = (traced.wallS/rep.e2e["wall_s"] - 1) * 100
		}
		rep.layer = map[string]float64{}
		for _, d := range perLayer {
			rep.layer[d.name] = layer[d.name]
		}
		if o.traceFile != "" {
			err := writeSpanFile(o.traceFile, spanFile{
				Workload: def.name, Seed: o.seed, PassStartUnixNs: traced.out.t0.UnixNano(),
				Spans: traced.out.spans, Program: traced.out.program,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: write span file: %w", def.name, err)
			}
		}
		rep.selfTable = selfTable(traced.out.spans)
	}

	for _, m := range []map[string]float64{rep.e2e, rep.layer} {
		for name, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				rep.failures = append(rep.failures, fmt.Sprintf("metric %s is not finite", name))
			}
		}
	}
	if rep.attempted < 1 {
		rep.attempted = 1
	}
	return rep, nil
}

// selfTable renders total and self time per span name, heaviest self time
// first: the layer split of the traced pass.
func selfTable(spans []span) []string {
	names, total, self, count := selfTimes(spans)
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var rows []string
	for _, n := range names {
		rows = append(rows, fmt.Sprintf("  %-28s n=%-7d total %10.1f ms  self %10.1f ms", n, count[n], total[n], self[n]))
	}
	return rows
}
