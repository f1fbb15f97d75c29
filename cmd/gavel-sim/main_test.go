package main

import (
	"slices"
	"strings"
	"testing"
)

// TestRunListsAndRunsExperiments drives run the way the command line does:
// -list names every experiment, -exp fig1 prints its report under a header,
// and an unknown id is an error rather than an empty report.
func TestRunListsAndRunsExperiments(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("-list: %v", err)
	}
	ids := strings.Fields(out.String())
	for _, want := range []string{"fig1", "fig8", "table3", "sharded"} {
		if !slices.Contains(ids, want) {
			t.Fatalf("-list printed %v, missing %s", ids, want)
		}
	}

	out.Reset()
	if err := run([]string{"-exp", "fig1"}, &out); err != nil {
		t.Fatalf("-exp fig1: %v", err)
	}
	if rep := out.String(); !strings.HasPrefix(rep, "===== fig1 =====\n") || len(rep) <= len("===== fig1 =====\n\n") {
		t.Fatalf("-exp fig1 printed %q, want a headed report", rep)
	}

	out.Reset()
	if err := run([]string{"-exp", "fig99"}, &out); err == nil || out.Len() != 0 {
		t.Fatalf("-exp fig99: err %v, output %q; want an error and nothing printed", err, out.String())
	}
}
