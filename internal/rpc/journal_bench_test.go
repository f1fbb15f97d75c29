package rpc

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"gavel/internal/core"
)

// benchRoundRecords is one service round as the journal sees it on the
// benchmark's svc_* workloads: 60 measured-throughput samples, one allocation
// per shard (40 jobs, 3 accelerator types), and the round seal.
func benchRoundRecords(round int64) []*journalRecord {
	recs := make([]*journalRecord, 0, 63)
	for i := 0; i < 60; i++ {
		recs = append(recs, &journalRecord{Kind: recMeasure, Measure: &journalMeasure{
			JobID: int(round)*7 + i, Type: i % 3, Rate: 1.25 + float64(i)/16,
		}})
	}
	for shard := 0; shard < 2; shard++ {
		al := &journalAlloc{Shard: shard}
		for k := 0; k < 40; k++ {
			id := shard*1000 + k
			al.IDs = append(al.IDs, id)
			al.Units = append(al.Units, core.Unit{Jobs: []int{k}, Tput: [][]float64{{1, 0.5, 0.25}}, Key: core.JobKey(id)})
			al.X = append(al.X, []float64{0.5, 0.25, 0.125})
		}
		recs = append(recs, &journalRecord{Kind: recAlloc, Alloc: al})
	}
	return append(recs, &journalRecord{Kind: recRound, Round: round})
}

// newBenchJournal starts a journal (header record written) in a fresh
// directory.
func newBenchJournal(b *testing.B) (*journal, string) {
	path := filepath.Join(b.TempDir(), "j.wal")
	j, _, err := openJournal(path, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := j.append(testConfigRecord()); err != nil {
		b.Fatal(err)
	}
	return j, path
}

// BenchmarkJournalAppend appends the round mix record by record (one op is
// one record; the write buffer drains to the file as it fills, no fsync).
func BenchmarkJournalAppend(b *testing.B) {
	j, path := newBenchJournal(b)
	recs := benchRoundRecords(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := j.close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	perRecord := fi.Size() / int64(b.N+1)
	b.SetBytes(perRecord)
	b.ReportMetric(float64(perRecord), "B/record")
}

// BenchmarkJournalReplay reads a 200-round journal (12,601 records) from byte
// zero, as a resuming coordinator does; one op is the whole log.
func BenchmarkJournalReplay(b *testing.B) {
	j, path := newBenchJournal(b)
	for round := int64(1); round <= 200; round++ {
		for _, rec := range benchRoundRecords(round) {
			if err := j.append(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := j.close(); err != nil {
		b.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		st, err := readJournal(f, fi.Size(), func(int, *journalRecord) error { return nil })
		if err != nil || st.records != 12601 {
			b.Fatalf("replayed %d records: %v", st.records, err)
		}
	}
	b.ReportMetric(float64(fi.Size())/12601, "B/record")
}
