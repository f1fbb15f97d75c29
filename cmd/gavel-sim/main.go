// gavel-sim drives the experiment harness: it regenerates any table or
// figure from the paper's evaluation on the simulator substrate.
//
// Usage:
//
//	gavel-sim -exp fig8            # one experiment at default scale
//	gavel-sim -exp all -jobs 400   # bigger traces
//	gavel-sim -exp table3 -full    # paper-scale run
//	gavel-sim -list                # list experiment ids
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gavel/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "gavel-sim: %v\n", err)
		os.Exit(2)
	}
}

// run parses args and writes the selected experiments' reports to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gavel-sim", flag.ContinueOnError)
	var (
		exp   = fs.String("exp", "all", "experiment id (fig1, table2, table3, fig8..fig21, cost, sharded, all)")
		jobs  = fs.Int("jobs", 120, "jobs per trace")
		seeds = fs.Int("seeds", 1, "seeds per data point")
		full  = fs.Bool("full", false, "paper-scale runs (long): 600 jobs, 3 seeds")
		list  = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opt := experiments.Options{Jobs: *jobs, Seeds: *seeds, Warmup: 10}
	if *full {
		opt.Jobs, opt.Seeds = 600, 3
	}

	runners := map[string]func() (string, error){
		"fig1":   func() (string, error) { return experiments.Figure1(), nil },
		"table2": func() (string, error) { return experiments.Table2(), nil },
		"table3": func() (string, error) {
			o, err := experiments.Table3(opt)
			return reportOf(o, err)
		},
		"fig8": func() (string, error) {
			o, err := experiments.Figure8(opt)
			return reportOf(o, err)
		},
		"fig9": func() (string, error) {
			o, err := experiments.Figure9(opt)
			return reportOf(o, err)
		},
		"fig10": func() (string, error) {
			o, err := experiments.Figure10(opt)
			return reportOf(o, err)
		},
		"fig11": func() (string, error) {
			o, err := experiments.Figure11()
			return reportOf(o, err)
		},
		"fig12": func() (string, error) {
			sizes := []int{32, 128, 512}
			if *full {
				sizes = append(sizes, 1024, 2048)
			}
			o, err := experiments.Figure12(sizes)
			return reportOf(o, err)
		},
		"fig13": func() (string, error) {
			o, err := experiments.Figure13(opt)
			return reportOf(o, err)
		},
		"fig14": func() (string, error) {
			o, err := experiments.Figure14(opt)
			return reportOf(o, err)
		},
		"fig15": func() (string, error) { return experiments.Figure15(), nil },
		"fig16": func() (string, error) {
			o, err := experiments.Figure16(opt)
			return reportOf(o, err)
		},
		"fig17": func() (string, error) {
			o, err := experiments.Figure17(opt)
			return reportOf(o, err)
		},
		"fig18": func() (string, error) {
			o, err := experiments.Figure18(opt)
			return reportOf(o, err)
		},
		"fig19": func() (string, error) {
			o, err := experiments.Figure19(opt)
			return reportOf(o, err)
		},
		"fig20": func() (string, error) {
			o, err := experiments.Figure20(opt)
			return reportOf(o, err)
		},
		"fig21": func() (string, error) {
			o, err := experiments.Figure21()
			return reportOf(o, err)
		},
		"cost": func() (string, error) {
			o, err := experiments.CostPolicies(opt)
			return reportOf(o, err)
		},
		"sharded": func() (string, error) {
			o, err := experiments.Sharded(opt, []int{1, 4})
			return reportOf(o, err)
		},
	}

	ids := make([]string, 0, len(runners))
	for id := range runners {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		fmt.Fprintln(stdout, strings.Join(ids, "\n"))
		return nil
	}

	selected := ids
	if *exp != "all" {
		if _, ok := runners[*exp]; !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		selected = []string{*exp}
	}
	for _, id := range selected {
		rep, err := runners[id]()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(stdout, "===== %s =====\n%s\n", id, rep)
	}
	return nil
}

// reportOf extracts the Report field shared by all experiment outcomes.
func reportOf(o fmt.Stringer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return o.String(), nil
}
