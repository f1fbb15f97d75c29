package rpc

import (
	"errors"
	"fmt"
	"testing"

	"gavel/internal/core"
	"gavel/internal/policy"
)

// armedPolicy runs the wrapped policy — the shard writes everything a good
// reset writes — and then, when armed, reports failure.
type armedPolicy struct {
	policy.Policy
	fail bool
}

func (p *armedPolicy) Allocate(in *policy.Input, ctx *policy.SolveContext) (*core.Allocation, error) {
	alloc, err := p.Policy.Allocate(in, ctx)
	if p.fail {
		return nil, errors.New("injected reset failure")
	}
	return alloc, err
}

// TestMirroredAllocationLifetimes holds the coordinator's mirror of each
// in-memory shard's allocation to the shard's two reset generations: (a) a
// mirrored allocation held across one more reset keeps its IDs, units, rows
// and X; (b) a shard reset that fails between two good ones leaves the mirror
// on the live allocation, untouched, and the next good reset writes into the
// other generation. The pair rows come from a PairSource that answers in one
// reused buffer, as the simulator's does.
func TestMirroredAllocationLifetimes(t *testing.T) {
	pols := make([]*armedPolicy, 2)
	clients := make([]ShardClient, 2)
	for k := range clients {
		srv, c := NewLocalShard()
		pols[k] = &armedPolicy{Policy: &policy.MaxMinFairness{}}
		srv.UsePolicy(pols[k])
		clients[k] = c
	}
	cfg := testServiceConfig("")
	cfg.PairGainThreshold, cfg.MaxPairsPerJob = 1.0, 2
	rows := make([]float64, 4)
	cfg.Pairs = func(a, b int) ([]float64, []float64) {
		ta, tb := testTput(a), testTput(b)
		for j := range ta {
			rows[j], rows[2+j] = 0.8*ta[j], 0.7*tb[j]
		}
		return rows[:2:2], rows[2:]
	}
	svc, err := NewService(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for id := 0; id < 12; id++ {
		if _, err := svc.Admit(id, 1, testTput(id)); err != nil {
			t.Fatal(err)
		}
	}
	round := int64(0)
	reset := func(r int) error {
		for id := 0; id < 12; id++ {
			row := testTput(id + r)
			if err := svc.ObserveJob(id, row); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < svc.NumShards(); k++ {
			if err := svc.MarkDirty(k); err != nil {
				t.Fatal(err)
			}
		}
		round++
		return svc.AllocateAll(round, testJobInfo, false)
	}
	type held struct {
		shard int
		alloc *core.Allocation
		ids   []int
		print string
	}
	hold := func() []held {
		var out []held
		for k := 0; k < svc.NumShards(); k++ {
			alloc, ids := svc.Alloc(k)
			out = append(out, held{k, alloc, ids, fmt.Sprintf("ids=%v units=%v x=%v", ids, alloc.Units, alloc.X)})
		}
		return out
	}
	intact := func(step string, hs []held) {
		t.Helper()
		for _, h := range hs {
			if got := fmt.Sprintf("ids=%v units=%v x=%v", h.ids, h.alloc.Units, h.alloc.X); got != h.print {
				t.Fatalf("%s: shard %d's held allocation changed:\n%s\nwas\n%s", step, h.shard, got, h.print)
			}
		}
	}

	if err := reset(0); err != nil {
		t.Fatal(err)
	}
	first := hold()
	if len(first[0].alloc.Units) <= len(first[0].ids) {
		t.Fatal("no pair unit reached shard 0's allocation")
	}
	if err := reset(1); err != nil {
		t.Fatal(err)
	}
	intact("(a) one more reset", first)

	live := hold()
	pols[1].fail = true // the last shard of the fan-out: shard 0's reply still lands
	if err := reset(2); err == nil {
		t.Fatal("the armed reset did not fail")
	}
	if alloc, _ := svc.Alloc(1); alloc != live[1].alloc {
		t.Fatal("(b) the mirror left the live allocation after a failed reset")
	}
	intact("(b) failed reset", live[1:])
	pols[1].fail = false
	if err := reset(3); err != nil {
		t.Fatal(err)
	}
	if alloc, _ := svc.Alloc(1); alloc == live[1].alloc {
		t.Fatal("(b) the good reset did not replace the allocation")
	}
	intact("(b) good reset after a failed one", live[1:])
}
