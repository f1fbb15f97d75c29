package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// openCollect opens the journal at path and returns it with every record it
// replayed.
func openCollect(path string) (*journal, []journalRecord, error) {
	var recs []journalRecord
	j, _, err := openJournal(path, func(_ int, rec *journalRecord) error {
		recs = append(recs, *rec)
		return nil
	})
	return j, recs, err
}

// appendRecords opens the journal at path, appends recs, closes it, and
// returns what the open replayed.
func appendRecords(t testing.TB, path string, recs ...*journalRecord) []journalRecord {
	t.Helper()
	j, got, err := openCollect(path)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	for _, rec := range recs {
		if err := j.append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return got
}

func writeTestJournal(t *testing.T, path string, recs ...*journalRecord) {
	t.Helper()
	if got := appendRecords(t, path, recs...); len(got) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(got))
	}
}

func testConfigRecord() *journalRecord {
	return &journalRecord{Kind: recConfig, Config: &journalConfig{
		Version:   JournalVersion,
		NumShards: 2,
		Policy:    PolicySpec{Name: "max_min_fairness"},
	}}
}

// TestJournalRoundTrip writes a record of every kind and replays them intact.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeTestJournal(t, path,
		testConfigRecord(),
		&journalRecord{Kind: recInstall, Install: &journalInstall{Shard: 1, JobID: 7, ScaleFactor: 2, Tput: []float64{1.5, 0.25}, Reason: reasonMigrate}},
		&journalRecord{Kind: recDirty, Shard: 1},
		&journalRecord{Kind: recAlloc, Alloc: &journalAlloc{Shard: 0, AllocateReply: AllocateReply{IDs: []int{7}, X: [][]float64{{0.5, 0.5}}}}},
		&journalRecord{Kind: recDown, Shard: 0},
		&journalRecord{Kind: recRemove, Remove: &journalRemove{Shard: 1, JobID: 7}},
		&journalRecord{Kind: recDegrade, Shard: 1},
		&journalRecord{Kind: recRound, Round: 3, Degraded: true},
	)

	j, recs, err := openCollect(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.close()
	if len(recs) != 8 {
		t.Fatalf("replayed %d records, want 8", len(recs))
	}
	if recs[0].Kind != recConfig || recs[0].Config.NumShards != 2 {
		t.Fatalf("bad config record: %+v", recs[0])
	}
	in := recs[1].Install
	if recs[1].Kind != recInstall || in.JobID != 7 || in.ScaleFactor != 2 || in.Reason != reasonMigrate ||
		len(in.Tput) != 2 || in.Tput[0] != 1.5 {
		t.Fatalf("bad install record: %+v", in)
	}
	if recs[7].Kind != recRound || recs[7].Round != 3 || !recs[7].Degraded {
		t.Fatalf("bad round record: %+v", recs[7])
	}
}

// TestJournalTornTailTruncates simulates a crash mid-append: a journal with a
// partial final frame must replay every intact record and truncate the tail
// so the next append starts at a clean frame boundary.
func TestJournalTornTailTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeTestJournal(t, path,
		testConfigRecord(),
		&journalRecord{Kind: recRound, Round: 1},
	)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn frame: a plausible length header plus half a payload.
	torn := append(append([]byte(nil), intact...), 0, 0, 0, 40, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j, recs, err := openCollect(path)
	if err != nil {
		t.Fatalf("open torn journal: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records from torn journal, want 2", len(recs))
	}
	if err := j.append(&journalRecord{Kind: recRound, Round: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	j, recs, err = openCollect(path)
	if err != nil {
		t.Fatalf("reopen after truncate+append: %v", err)
	}
	defer j.close()
	if len(recs) != 3 || recs[2].Round != 2 {
		t.Fatalf("post-truncation append did not replay: %d records", len(recs))
	}
}

// TestJournalCorruptFrameStopsReplay flips a payload byte in the middle of
// the log: replay must stop at the damage (treating everything after as
// lost), not decode garbage.
func TestJournalCorruptFrameStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeTestJournal(t, path, testConfigRecord(), &journalRecord{Kind: recRound, Round: 1})
	short, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the second frame's payload (first frame is the
	// config record; its frame length is at the head).
	data := append([]byte(nil), short...)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := openCollect(path)
	if err != nil {
		t.Fatalf("open corrupt journal: %v", err)
	}
	defer j.close()
	if len(recs) != 1 {
		t.Fatalf("replayed %d records past a corrupt frame, want 1", len(recs))
	}
}

// TestJournalVersionMismatchRejected: a journal from an incompatible build
// must be rejected at open, not misreplayed.
func TestJournalVersionMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeTestJournal(t, path, &journalRecord{Kind: recConfig, Config: &journalConfig{
		Version: JournalVersion + 1, NumShards: 2,
	}})
	if _, _, err := openCollect(path); err == nil {
		t.Fatal("journal with a future version opened without error")
	}
}

// appendFrame frames payload the way every journal version has.
func appendFrame(log, payload []byte) []byte {
	log = binary.BigEndian.AppendUint32(log, uint32(len(payload)))
	log = binary.BigEndian.AppendUint32(log, crc32.ChecksumIEEE(payload))
	return append(log, payload...)
}

// openRefused writes log to a fresh file, requires open to fail with an
// error containing want, and the file to be left as it was.
func openRefused(t *testing.T, log []byte, want string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openCollect(path); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("open = %v, want an error naming %q", err, want)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, log) {
		t.Fatalf("refusing the journal rewrote it: %d bytes, was %d", len(after), len(log))
	}
}

// TestJournalV2Refused: a version-2 log (standalone gob stream per frame) is
// refused at open and left as it was, not read as a torn tail and truncated
// to nothing.
func TestJournalV2Refused(t *testing.T) {
	var payload bytes.Buffer
	rec := testConfigRecord()
	rec.Config.Version = 2
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		t.Fatal(err)
	}
	openRefused(t, appendFrame(nil, payload.Bytes()), "config record")
}

// TestJournalV3Refused: a version-3 log (a gob epoch marker frame, then
// records in one gob stream) is refused at open by version, and left as it
// was.
func TestJournalV3Refused(t *testing.T) {
	v3 := appendFrame(nil, []byte("\x00gavel journal epoch"))
	var payload bytes.Buffer
	enc := gob.NewEncoder(&payload)
	rec := testConfigRecord()
	rec.Config.Version = 3
	for _, r := range []*journalRecord{rec, {Kind: recRound, Round: 1}} {
		payload.Reset()
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
		v3 = appendFrame(v3, payload.Bytes())
	}
	openRefused(t, v3, "version 3")
}

// TestJournalBadHeaderRejected: a log not starting with a config record is
// not a journal.
func TestJournalBadHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeTestJournal(t, path, &journalRecord{Kind: recRound, Round: 1})
	if _, _, err := openCollect(path); err == nil {
		t.Fatal("journal without a config header opened without error")
	}
}

// abandon drops a journal the way a SIGKILL does: committed bytes stay, the
// write buffer is lost, nothing is flushed.
func abandon(j *journal) { j.f.Close() }

// frameOffsets returns the start offset of every frame in a well-formed log.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	for off := 0; off < len(data); {
		if off+8 > len(data) {
			t.Fatalf("log ends inside a frame header at %d", off)
		}
		offs = append(offs, off)
		off += 8 + int(binary.BigEndian.Uint32(data[off:]))
	}
	return offs
}

// mixedTestRecords is a record stream touching every slice- and
// pointer-carrying kind.
func mixedTestRecords() []*journalRecord {
	recs := []*journalRecord{testConfigRecord()}
	for round := int64(1); round <= 6; round++ {
		recs = append(recs,
			&journalRecord{Kind: recSubmit, Submit: &journalSubmit{Tenant: "a", Key: "k", JobID: int(round), Tput: []float64{1, 2}, Round: round}},
			&journalRecord{Kind: recInstall, Install: &journalInstall{Shard: 1, JobID: int(round), ScaleFactor: 1, Tput: []float64{1.5, 0.25}}},
			&journalRecord{Kind: recMeasure, Measure: &journalMeasure{JobID: int(round), Type: 1, Rate: 0.75}},
			&journalRecord{Kind: recAlloc, Alloc: &journalAlloc{Shard: 1, AllocateReply: AllocateReply{IDs: []int{int(round)}, X: [][]float64{{0.5, 0.5}}}}},
			&journalRecord{Kind: recRound, Round: round},
		)
	}
	return recs
}

// TestJournalTenuresReplayAsOne writes one record stream across three
// abandoned coordinators (a torn tail left between the second and the third)
// and with a single writer: both logs must replay record for record equal.
func TestJournalTenuresReplayAsOne(t *testing.T) {
	recs := mixedTestRecords()
	dir := t.TempDir()
	one := filepath.Join(dir, "one.wal")
	writeTestJournal(t, one, recs...)
	j, want, err := openCollect(one)
	if err != nil {
		t.Fatal(err)
	}
	abandon(j)

	split := filepath.Join(dir, "split.wal")
	cuts := []int{0, 11, 21, len(recs)}
	for e := 0; e+1 < len(cuts); e++ {
		j, got, err := openCollect(split)
		if err != nil {
			t.Fatalf("writer %d: open: %v", e+1, err)
		}
		if len(got) != cuts[e] || (e > 0 && !reflect.DeepEqual(got, want[:cuts[e]])) {
			t.Fatalf("writer %d: replayed %d records, want the first %d intact", e+1, len(got), cuts[e])
		}
		for _, rec := range recs[cuts[e]:cuts[e+1]] {
			if err := j.append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.commit(); err != nil {
			t.Fatal(err)
		}
		// Appended after the last commit: lost with the write buffer.
		if err := j.append(&journalRecord{Kind: recRound, Round: 99}); err != nil {
			t.Fatal(err)
		}
		abandon(j)
		if e == 1 {
			f, err := os.OpenFile(split, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0, 0, 0, 40, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
			f.Close()
		}
	}
	f, err := os.Open(split)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, _ := f.Stat()
	var got []journalRecord
	st, err := readJournal(f, fi.Size(), func(_ int, rec *journalRecord) error {
		got = append(got, *rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.records != len(recs) || st.bytes != fi.Size() {
		t.Fatalf("stats %+v, want %d records, %d bytes", st, len(recs), fi.Size())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("three writers did not replay equal to the same records from one")
	}
	// Frames are self-contained: three writers leave the very bytes one does.
	a, _ := os.ReadFile(one)
	b, _ := os.ReadFile(split)
	if !bytes.Equal(a, b) {
		t.Fatalf("three writers wrote %d bytes, one writer %d, or the same length differently", len(b), len(a))
	}
}

// TestJournalDamagedFrameTruncates flips one bit in the header and in the
// payload of a frame in the middle of the log: replay stops at that frame,
// keeps everything before it, and the log is truncated to where it began.
func TestJournalDamagedFrameTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	recs := mixedTestRecords()
	appendRecords(t, path, recs[:11]...)
	appendRecords(t, path, recs[11:]...)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := frameOffsets(t, intact)[11] // the second writer's first record
	for _, flip := range []int{at + 1, at + 5, at + 8, at + 12} {
		data := append([]byte(nil), intact...)
		data[flip] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, got, err := openCollect(path)
		if err != nil {
			t.Fatalf("flip at %d: %v", flip, err)
		}
		abandon(j)
		if len(got) != 11 {
			t.Fatalf("flip at %d: replayed %d records, want the first writer's 11", flip, len(got))
		}
		if fi, _ := os.Stat(path); fi.Size() != int64(at) {
			t.Fatalf("flip at %d: log truncated to %d, want %d", flip, fi.Size(), at)
		}
	}
}

// TestJournalAppendAllocFree: appending a record allocates nothing, and a
// measurement sample — most of a service round's records — is a frame of at
// most 32 bytes.
func TestJournalAppendAllocFree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _, err := openCollect(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	rec := &journalRecord{Kind: recMeasure, Measure: &journalMeasure{JobID: 123456, Type: 2, Rate: 1.0 / 3}}
	size := func() int64 {
		if err := j.commit(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if err := j.append(testConfigRecord()); err != nil {
		t.Fatal(err)
	}
	before := size()
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	if frame := size() - before; frame > 32 {
		t.Fatalf("a recMeasure frame is %d bytes, want <= 32", frame)
	}
	for _, r := range append(benchRoundRecords(1), rec) {
		if allocs := testing.AllocsPerRun(50, func() { j.append(r) }); allocs != 0 {
			t.Fatalf("journal.append allocates %.0f times for a kind %d record, want 0", allocs, r.Kind)
		}
	}
}

// TestJournalCorruptLengthBoundsAllocation: a tail header claiming a gigabyte
// is a torn tail, found without allocating the gigabyte.
func TestJournalCorruptLengthBoundsAllocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	writeTestJournal(t, path, testConfigRecord(), &journalRecord{Kind: recRound, Round: 1})
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tail := binary.BigEndian.AppendUint32(nil, 1<<30-1)
	tail = append(tail, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3)
	if err := os.WriteFile(path, append(append([]byte(nil), intact...), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j, recs, err := openCollect(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	abandon(j)
	if len(recs) != 2 || recs[1].Round != 1 {
		t.Fatalf("replayed %d records ahead of the corrupt header, want 2", len(recs))
	}
	// Two 64 KB I/O buffers, not the claimed 1 GiB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("opening a %d-byte log allocated %d bytes", len(intact)+len(tail), got)
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(len(intact)) {
		t.Fatalf("log is %d bytes after open, want the %d intact ones", fi.Size(), len(intact))
	}
}
