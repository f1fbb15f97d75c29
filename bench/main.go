// Command bench is the repository's end-to-end round benchmark: four
// workloads (monolithic simulator, policy ladder, journaled service, crash
// replay) measured from outside the program with per-layer attribution.
// README.md in this directory is the manual; BENCHMARK.json at the repo root
// is the contract.
//
//	go run ./bench -workload all -seed 1            # every end-to-end metric, outputs verified
//	go run ./bench -workload svc_stream -trace out.json   # traced run: per-layer metrics + span file
//	go run ./bench -aa 2                            # two full sets back to back, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// passSeconds is the nominal length of one measured pass on the reference
// box; -seconds buys seconds/passSeconds passes. Pass size is fixed work
// (the result digest and every count depend on it), so a faster program
// finishes its passes sooner instead of doing more of them.
const passSeconds = 6

// manifest is the part of BENCHMARK.json the driver reads: the bounds for
// -aa, and the names the smoke test holds the driver to.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       string
	aa          int
	writeGolden bool
	manifest    string
	goldenPath  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 18, "measuring time; buys seconds/6 passes of fixed work (at least 1)")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics from untraced passes; 1: traced run, per-layer metrics; a path: traced run that also writes the span file there")
	flag.IntVar(&o.aa, "aa", 0, "A/A self-check: run this many complete sets back to back and compare them to the bounds in BENCHMARK.json")
	flag.BoolVar(&o.writeGolden, "write-golden", false, "rewrite the golden file from this run (seed 1, traced, full scale)")
	flag.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "benchmark manifest (bounds for -aa)")
	flag.StringVar(&o.goldenPath, "golden", filepath.Join("bench", "golden", "seed1.json"), "golden file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	code, err := realMain(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// pinEnvironment fixes what the measurements depend on besides the code:
// two Ps (the reference box has two cores), the default GC target, and no
// GAVEL_* knob leaking in from the caller's shell. Solver options are passed
// explicitly (lpOptions) because the lp package reads its variables at init.
func pinEnvironment() {
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "GAVEL_") {
			os.Unsetenv(name)
		}
	}
}

func selectWorkloads(name string) ([]workloadDef, error) {
	if name == "all" {
		return workloadDefs, nil
	}
	for _, d := range workloadDefs {
		if d.name == name {
			return []workloadDef{d}, nil
		}
	}
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

func realMain(o options) (int, error) {
	pinEnvironment()
	defs, err := selectWorkloads(o.workload)
	if err != nil {
		return 2, err
	}
	// Journals live under one scratch directory inside the working
	// directory, removed on every exit path.
	dir, err := os.MkdirTemp(".", ".gavel-bench-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	// Deferred calls do not run when a signal ends the process, and a pass
	// leaves tens of MB of journal behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(130)
	}()

	passes := o.seconds / passSeconds
	if passes < 1 {
		passes = 1
	}
	traced := o.trace != "0" && o.trace != ""
	if traced && passes < 2 {
		passes = 2 // the traced pass needs an untraced one to compare against
	}
	printHeader(o, passes, dir)

	if o.aa > 0 {
		return runAA(defs, o, passes, dir)
	}

	var golden *goldenFile
	if o.writeGolden {
		if o.seed != 1 || !traced || o.workload != "all" {
			return 2, fmt.Errorf("-write-golden needs -workload all -seed 1 and a traced run")
		}
	} else if o.seed == 1 && runtime.GOARCH == "amd64" {
		if golden, err = loadGolden(o.goldenPath); err != nil {
			return 1, fmt.Errorf("golden file: %w", err)
		}
	}
	written := &goldenFile{Seed: 1, Arch: runtime.GOARCH, Workloads: map[string]goldenEntry{}}

	ok := true
	for _, def := range defs {
		ro := runOpts{seed: o.seed, passes: passes, scale: 1, traced: traced, calib: true, dir: dir, golden: golden}
		if traced && o.trace != "1" {
			ro.traceFile = o.trace
			if len(defs) > 1 {
				ext := filepath.Ext(o.trace)
				ro.traceFile = strings.TrimSuffix(o.trace, ext) + "." + def.name + ext
			}
		}
		rep, err := runWorkload(def, ro)
		if err != nil {
			return 1, err
		}
		written.Workloads[def.name] = rep.golden
		printReport(rep, traced, ro.traceFile)
		printResultLine(rep, traced)
		ok = ok && rep.failed() == 0
	}
	if o.writeGolden && ok {
		if err := written.write(o.goldenPath); err != nil {
			return 1, err
		}
		fmt.Printf("wrote %s\n", o.goldenPath)
	}
	if !ok {
		return 1, nil
	}
	return 0, nil
}

func printHeader(o options, passes int, dir string) {
	fmt.Printf("# gavel bench: %s, nproc %d, GOMAXPROCS %d, GC %d%%, seed %d, passes %d, journal fs %s, commit %s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), 100, o.seed, passes, fsType(dir), gitCommit())
}

// printReport is the human-readable half of the output: every metric by
// name with its unit (and sample count where it is a percentile), the pass
// walls and calibration spins so a disturbed run can be recognised, and the
// failed operations if any.
func printReport(r *report, traced bool, traceFile string) {
	fmt.Printf("\n== %s: %d operations, %d failed\n", r.workload, r.attempted, r.failed())
	fmt.Printf("   pass walls %.3f s, calibration spins %.1f ms\n", r.passWalls, r.calibMs)
	if r.cutAt > 0 {
		fmt.Printf("   DISTURBED: passes cut to %d to stay inside the run budget\n", r.cutAt)
	}
	for _, d := range endToEnd {
		v, ok := r.e2e[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("   %-22s %14.4f %s", d.name, v, d.unit)
		if n, ok := r.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	if traced {
		fmt.Println("   -- per layer (traced pass) --")
		for _, d := range perLayer {
			fmt.Printf("   %-34s %16.4f %s\n", d.name, r.layer[d.name], d.unit)
		}
		fmt.Println("   -- span self time (traced pass) --")
		for _, row := range r.selfTable {
			fmt.Println(" ", row)
		}
		if traceFile != "" {
			fmt.Printf("   spans written to %s\n", traceFile)
		}
	}
	for i, f := range r.failures {
		if i == 10 {
			fmt.Printf("   ... %d more failures\n", len(r.failures)-10)
			break
		}
		fmt.Println("   FAILED:", f)
	}
}

// printResultLine prints the machine-readable result: one JSON object with
// exactly the keys correct, attempted, failed and metrics.
func printResultLine(r *report, traced bool) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, r.e2e
	if traced {
		defs, values = perLayer, r.layer
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		metrics[d.name] = mv{Value: values[d.name], Unit: d.unit}
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed() == 0, r.attempted, r.failed(), metrics}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	fmt.Println(string(b))
}

// runAA is the A/A self-check: n complete untraced sets of the same code,
// back to back, every pair of sets compared. Noise has no direction, so a
// set that ran faster than another counts like one that ran slower: the
// check fails when any two sets differ by more than the metric's bound
// (larger over smaller), when a value is not positive, or when a run was cut
// short (fewer passes: its minima are not comparable).
func runAA(defs []workloadDef, o options, passes int, dir string) (int, error) {
	man, err := loadManifest(o.manifest)
	if err != nil {
		return 1, fmt.Errorf("-aa needs the bounds: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range man.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	sets := make([]map[string]*report, o.aa)
	for s := range sets {
		sets[s] = map[string]*report{}
		for _, def := range defs {
			rep, err := runWorkload(def, runOpts{seed: o.seed, passes: passes, scale: 1, calib: true, dir: dir})
			if err != nil {
				return 1, err
			}
			if rep.failed() > 0 {
				printReport(rep, false, "")
				return 1, fmt.Errorf("set %d: %s failed its output checks", s+1, def.name)
			}
			sets[s][def.name] = rep
			fmt.Printf("set %d %-18s pass walls %.3f s\n", s+1, def.name, rep.passWalls)
		}
	}
	exceeded := 0
	fmt.Printf("\n%-18s %-14s %5s %12s %12s %8s %7s\n", "workload", "metric", "sets", "first", "second", "apart", "bound")
	for _, def := range defs {
		for s := range sets {
			if cut := sets[s][def.name].cutAt; cut > 0 {
				fmt.Printf("%-18s set %d DISTURBED: cut to %d of %d passes\n", def.name, s+1, cut, passes)
				exceeded++
			}
		}
		for _, d := range endToEnd {
			for s := range sets {
				for t := s + 1; t < len(sets); t++ {
					a, b := sets[s][def.name].e2e[d.name], sets[t][def.name].e2e[d.name]
					apart := math.Max(a/b, b/a) - 1
					mark := ""
					if !(a > 0 && b > 0) || apart > bounds[d.name] {
						mark = "  EXCEEDED"
						exceeded++
					}
					fmt.Printf("%-18s %-14s %d v %d %12.4f %12.4f %7.1f%% %6.0f%%%s\n", def.name, d.name, s+1, t+1, a, b, apart*100, bounds[d.name]*100, mark)
				}
			}
		}
	}
	if exceeded > 0 {
		return 1, fmt.Errorf("A/A: %d comparison(s) of identical sets were disturbed or further apart than their bound", exceeded)
	}
	fmt.Println("A/A: every pair of sets within every bound")
	return 0, nil
}
