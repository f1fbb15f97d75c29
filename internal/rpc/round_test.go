package rpc

import (
	"path/filepath"
	"testing"
)

// roundGrammar is the order RunRound may append record kinds in within one
// sealed round: remove* · submit/admit* · migrate* · alloc* · dirty/measure*
// · snapshot* · recover* · round. A record advances the phase to the first one
// at or after the current that takes it; none left is a violation. recDown can
// follow any failed shard call, so it belongs to every phase.
var roundGrammar = []struct {
	name  string
	takes func(rec *journalRecord) bool
}{
	{"retire", func(r *journalRecord) bool { return r.Kind == recRemove }},
	{"submit/admit", func(r *journalRecord) bool {
		switch r.Kind {
		case recSubmit, recWithdraw, recReject, recTouch, recRemove:
			return true
		}
		return r.Kind == recInstall && r.Install.Reason == reasonAdmit
	}},
	{"migrate", func(r *journalRecord) bool {
		return r.Kind == recRemove || r.Kind == recRebalance || (r.Kind == recInstall && r.Install.Reason == reasonMigrate)
	}},
	{"alloc", func(r *journalRecord) bool { return r.Kind == recAlloc || r.Kind == recDegrade }},
	{"dirty/measure", func(r *journalRecord) bool { return r.Kind == recDirty || r.Kind == recMeasure }},
	{"snapshot", func(r *journalRecord) bool { return r.Kind == recSnapshot }},
	{"recover", func(r *journalRecord) bool {
		return r.Kind == recRemove || (r.Kind == recInstall && r.Install.Reason == reasonRecover)
	}},
}

// TestRoundOrderIsJournalOrder states the contract RunRound exists for: the
// order of a round's steps is the journal's record order. It drives 32 rounds
// over two journaled shards — an empty round, streamed submissions, a
// withdrawal, a completion, a rebalance, forced reallocations, snapshots and
// a shard loss — then reads the journal back and holds every sealed round to
// the grammar, with every phase of it exercised at least once.
func TestRoundOrderIsJournalOrder(t *testing.T) {
	const rounds = 32
	path := filepath.Join(t.TempDir(), "j.wal")
	_, c0 := NewLocalShard()
	_, inner1 := NewLocalShard()
	f1 := &flakyClient{ShardClient: inner1}
	cfg := testServiceConfig(path)
	const first = 100 // even: hash routing puts it on shard 0, the next on shard 1, ...
	cfg.Admission = &AdmissionConfig{MaxQueuePerTenant: 16, JobIDBase: first}
	svc, err := NewService(cfg, []ShardClient{c0, f1})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(key string, id, sf int) error {
		_, err := svc.Submit(SubmitArgs{Tenant: "a", Key: key, Name: key, TotalSteps: 900, ScaleFactor: sf, Tput: testTput(id)})
		return err
	}
	var rates []MeasuredSample
	plan := &RoundPlan{
		RoundSeconds:   10,
		RebalanceEvery: 5,
		ReallocEvery:   4,
		SnapshotEvery:  3,
		Info:           testJobInfo,
		// The second submission finishes in round 8 and is retired in round 9.
		Done: func(id int) bool { return id == first+1 && svc.Round() >= 8 },
		Arrive: func() error {
			switch svc.Round() {
			case 1:
				// Demand 2 per job on shard 0 and 1 on shard 1 leaves the gap a
				// rebalance closes.
				for i := 0; i < 6; i++ {
					if err := submit(string(rune('a'+i)), i, 2-i%2); err != nil {
						return err
					}
				}
			case 3:
				_, err := svc.Withdraw(WithdrawArgs{Tenant: "a", Key: "d"})
				return err
			case 21:
				f1.fail = func(string) error { return Errorf(CodeShardDown, "injected death") }
			case 22:
				return submit("late", 7, 1)
			}
			return nil
		},
		Progress: func(sh ShardRound) (bool, []PairObservation, []MeasuredSample) {
			rates = rates[:0]
			finished := false
			for _, id := range sh.IDs {
				rates = append(rates, MeasuredSample{JobID: id, Type: 0, Rate: 0.5 + float64(id%3)*0.25})
				finished = finished || (id == first+1 && svc.Round() == 7)
			}
			return finished, nil, rates
		},
	}
	for r := 1; r <= rounds; r++ {
		out, err := svc.RunRound(plan)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if !out.Sealed || svc.Round() != int64(r) {
			t.Fatalf("round %d: sealed=%v, service at round %d", r, out.Sealed, svc.Round())
		}
	}
	if svc.Rebalances() == 0 || svc.Recoveries() == 0 || !svc.Down(1) {
		t.Fatalf("schedule premise broken: %d rebalances, %d recoveries, shard 1 down=%v",
			svc.Rebalances(), svc.Recoveries(), svc.Down(1))
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	phase, sealed := 0, int64(0)
	seen := make([]int, len(roundGrammar))
	var inRound []recordKind
	j, _, err := openJournal(path, func(i int, rec *journalRecord) error {
		switch rec.Kind {
		case recConfig, recDown:
			return nil
		case recRound:
			if sealed++; rec.Round != sealed {
				t.Errorf("record %d seals round %d after round %d", i, rec.Round, sealed-1)
			}
			phase, inRound = 0, inRound[:0]
			return nil
		}
		inRound = append(inRound, rec.Kind)
		for phase < len(roundGrammar) && !roundGrammar[phase].takes(rec) {
			phase++
		}
		if phase == len(roundGrammar) {
			t.Fatalf("round %d, record %d: kind %d is out of order (round so far: %v)", sealed+1, i, rec.Kind, inRound)
		}
		seen[phase]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	j.close()
	if sealed != rounds {
		t.Fatalf("journal seals %d rounds, drove %d", sealed, rounds)
	}
	for p, n := range seen {
		if n == 0 {
			t.Errorf("no record ever landed in the %q phase: the schedule does not exercise it", roundGrammar[p].name)
		}
	}
}
