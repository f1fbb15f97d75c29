package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// goldenEntry pins one workload's outputs for one seed: the result digest
// and every count-type layer metric (quality.* included, which must equal
// the golden values and never "improve").
type goldenEntry struct {
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts"`
}

// goldenFile is bench/golden/seed1.json. It holds for amd64 at full scale:
// other architectures may fuse multiply-adds and round differently, and a
// scaled-down workload is a different workload.
type goldenFile struct {
	Seed      int64                  `json:"seed"`
	Arch      string                 `json:"arch"`
	Workloads map[string]goldenEntry `json:"workloads"`
}

func loadGolden(path string) (*goldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

func (g *goldenFile) write(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// goldenFrom extracts what a pass would pin: the exact-count metrics it
// produced.
func goldenFrom(out *passOut) goldenEntry {
	e := goldenEntry{Digest: out.digest, Counts: map[string]float64{}}
	for _, d := range perLayer {
		if v, ok := out.layer[d.name]; ok && d.exact && d.name != "obs.spans_recorded" {
			e.Counts[d.name] = v
		}
	}
	return e
}

// check compares a run against the golden entry. An untraced pass produces
// only the counts it can read from results, so it is held to those; a
// traced pass must reproduce every pinned count.
func (g *goldenFile) check(workload string, got goldenEntry, traced bool) []string {
	want, ok := g.Workloads[workload]
	if !ok {
		return []string{fmt.Sprintf("golden: no entry for workload %s", workload)}
	}
	var bad []string
	if got.Digest != want.Digest {
		bad = append(bad, fmt.Sprintf("golden: digest %s, want %s", got.Digest, want.Digest))
	}
	names := make([]string, 0, len(want.Counts))
	for n := range want.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v, have := got.Counts[n]
		switch {
		case !have && traced:
			bad = append(bad, fmt.Sprintf("golden: %s missing, want %v", n, want.Counts[n]))
		case have && v != want.Counts[n]:
			bad = append(bad, fmt.Sprintf("golden: %s = %v, want %v", n, v, want.Counts[n]))
		}
	}
	return bad
}
