package rpc

// This file is the coordinator's durability plane: a versioned write-ahead
// log of every mirror mutation the Service makes — admissions, removals,
// migrations, recoveries, down-markings, per-shard allocations, and the
// periodic seed snapshots — so a restarted coordinator can replay the log
// and resume with the exact pre-crash mirror, warm bases included.
//
// Records are appended through a buffered writer and fsynced in batches at
// round boundaries (Service.EndRound): the round is the durability unit,
// matching the protocol's round-synchronous batching. Each record is one
// frame, [4-byte length][4-byte crc32][payload], so a torn tail write — the
// crash case — is detected by length or checksum, the log is truncated at
// the last intact frame, and replay proceeds from what was durably committed.
//
// A payload is the record in the hand-written codec of journalcodec.go: no
// frame depends on another, so any number of coordinators may take turns
// appending to one file and a reader needs no state between frames. Warm
// seeds are written in lp.Basis's one wire form, the same bytes the control
// plane carries, so a journaled snapshot is exactly as usable as a live one.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"gavel/internal/obs"
	"gavel/internal/wire"
)

// JournalVersion stamps the log's record vocabulary. A journal written by an
// incompatible build is rejected at open, not misreplayed. Version 2 added
// the submission-plane records (recSubmit through recMeasure); version 3 made
// the gob stream epoch-scoped; version 4 replaced gob with the record codec.
const JournalVersion = 4

// recordKind tags the journal's record union.
type recordKind uint8

const (
	recConfig    recordKind = iota + 1 // first record of every journal
	recInstall                         // job landed on a shard (admit/migrate/recover)
	recRemove                          // job left a shard (departure or migration source)
	recDown                            // shard marked dead
	recDirty                           // shard marked stale by the driver
	recAlloc                           // shard's allocation recomputed
	recSnapshot                        // shard's seeds + status pulled
	recRebalance                       // a rebalance pass moved >= 1 job
	recDegrade                         // shard's allocation went stale (transient failure)
	recRound                           // round boundary (fsync batch point)
	recSubmit                          // submission accepted into the ingress queue
	recReject                          // queued submission shed by the overload ladder
	recWithdraw                        // submission withdrawn (client or abandoned-TTL)
	recTouch                           // tenant liveness advanced by a Poll
	recMeasure                         // one worker-measured throughput sample
)

// installReason distinguishes the three ways a job lands on a shard, so
// replay rebuilds the migration/recovery counters exactly.
type installReason uint8

const (
	reasonAdmit installReason = iota
	reasonMigrate
	reasonRecover
)

// journalRecord is the tagged union written to the log. Exactly the fields
// for the active Kind are set, and only those are written.
type journalRecord struct {
	Kind recordKind

	Config   *journalConfig
	Install  *journalInstall
	Remove   *journalRemove
	Shard    int // recDown, recDirty, recSnapshot, recDegrade target
	Alloc    *journalAlloc
	Snapshot *journalSnapshot
	Round    int64 // recRound
	Degraded bool  // recRound: some shard ran degraded this round
	Submit   *journalSubmit
	Ref      *journalSubmitRef // recReject, recWithdraw, recTouch target
	Measure  *journalMeasure
}

// journalConfig is the log's header record: enough identity to refuse
// replaying a journal into a differently-shaped service.
type journalConfig struct {
	Version   int
	NumShards int
	Policy    PolicySpec
	Route     int
}

type journalInstall struct {
	Shard       int
	JobID       int
	ScaleFactor int
	Tput        []float64
	Reason      installReason
}

type journalRemove struct {
	Shard int
	JobID int
}

// journalAlloc and journalSnapshot are a shard's reply as the coordinator
// received it, so each shape has one encoder.
type journalAlloc struct {
	Shard int
	AllocateReply
}

type journalSnapshot struct {
	Shard int
	SnapshotReply
}

// journalSubmit is one accepted submission: everything needed to rebuild the
// queued entry and the coordinator-assigned job-ID counter on replay.
type journalSubmit struct {
	Tenant      string
	Key         string
	Name        string
	JobID       int
	ScaleFactor int
	SLOClass    int
	TotalSteps  float64
	Tput        []float64
	Round       int64
}

// withdrawReason distinguishes client withdrawals from abandoned-client TTL
// expiry (only client contact advances the liveness clock on replay).
type withdrawReason uint8

const (
	withdrawClient withdrawReason = iota
	withdrawAbandoned
)

// journalSubmitRef names an existing submission (recReject, recWithdraw) or
// a tenant (recTouch, with an empty Key).
type journalSubmitRef struct {
	Tenant string
	Key    string
	Reason withdrawReason
	Round  int64
}

// journalMeasure is one worker-measured throughput sample; replay re-folds
// it through the same EWMA as the live path.
type journalMeasure struct {
	JobID int
	Type  int
	Rate  float64
}

// journal is an append-only framed record log with batched fsync. The mutex
// serializes the submission plane's RPC-goroutine appends (recSubmit,
// recWithdraw, recTouch) against the round loop's; it is always acquired
// after ing.mu when both are held.
type journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer

	// buf holds one frame at a time, header first; it is reused across
	// appends.
	buf wire.Writer

	// Telemetry (setObs): append/commit counters, appended bytes, and the
	// fsync latency histogram — the signal that shows a slow disk stalling
	// round seals.
	reg      *obs.Registry
	appends  *obs.Counter
	commits  *obs.Counter
	bytes    *obs.Counter
	fsyncSec *obs.Histogram
}

// setObs registers the journal's instruments on the plane's registry.
func (j *journal) setObs(p *obs.Plane) {
	if j == nil || p == nil {
		return
	}
	reg := p.Registry()
	j.mu.Lock()
	j.reg = reg
	j.appends = reg.Counter("gavel_journal_appends_total", "Records appended to the write-ahead journal.")
	j.commits = reg.Counter("gavel_journal_fsyncs_total", "Journal commit batches fsynced (one per sealed round).")
	j.bytes = reg.Counter("gavel_journal_bytes_total", "Framed bytes appended to the journal.")
	j.fsyncSec = reg.Histogram("gavel_journal_fsync_seconds", "Flush+fsync latency per journal commit.", obs.DurationBuckets)
	j.mu.Unlock()
}

// replayStats is what one pass over the log found.
type replayStats struct {
	records int   // intact records handed to apply
	bytes   int64 // offset of the last intact frame's end
}

// openJournal opens (or creates) the log at path, streams every intact
// record through apply, truncates any torn tail so appends restart from a
// clean frame boundary, and returns the journal positioned for appending.
func openJournal(path string, apply func(i int, rec *journalRecord) error) (_ *journal, st replayStats, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, st, fmt.Errorf("rpc: open journal: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, st, fmt.Errorf("rpc: stat journal: %w", err)
	}
	if st, err = readJournal(f, fi.Size(), apply); err != nil {
		return nil, st, err
	}
	if err = f.Truncate(st.bytes); err != nil {
		return nil, st, fmt.Errorf("rpc: truncate journal tail: %w", err)
	}
	if _, err = f.Seek(st.bytes, io.SeekStart); err != nil {
		return nil, st, err
	}
	return &journal{f: f, w: bufio.NewWriterSize(f, 1<<16)}, st, nil
}

// SealedRound reads the journal file at path without touching it and returns
// the last round whose seal is on disk (0 before any): where a coordinator
// started over the file now would resume, and the latest round whose effects
// may have left the process.
func SealedRound(path string) (sealed int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	_, err = readJournal(f, fi.Size(), func(_ int, rec *journalRecord) error {
		if rec.Kind == recRound {
			sealed = rec.Round
		}
		return nil
	})
	return sealed, err
}

// readJournal decodes the size-byte log in r until EOF or the first damaged
// frame, handing each record to apply: rec is reused, what it points to is
// not. It holds one payload buffer at a time, never the log.
func readJournal(r io.Reader, size int64, apply func(i int, rec *journalRecord) error) (replayStats, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var (
		st      replayStats
		hdr     [8]byte
		payload []byte
		rec     journalRecord
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return st, nil // clean end or torn length header
			}
			return st, fmt.Errorf("rpc: read journal: %w", err)
		}
		n := int64(binary.BigEndian.Uint32(hdr[:4]))
		// The length is unverified until the checksum is: bound it by what the
		// file can still hold before allocating for it.
		if n == 0 || n > size-st.bytes-8 {
			return st, nil // corrupt length or torn payload
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return st, fmt.Errorf("rpc: read journal: %w", err) // n fits the file: not a torn tail
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:]) {
			return st, nil // torn or bit-rotted frame
		}
		err := readRecord(&rec, payload)
		if st.records == 0 {
			switch {
			case payload[0] == 0: // no kind is 0: version 3's gob epoch marker
				return st, fmt.Errorf("rpc: journal version 3, this build speaks %d", JournalVersion)
			case err != nil || rec.Kind != recConfig:
				return st, fmt.Errorf("rpc: journal does not start with a version-%d config record", JournalVersion)
			case rec.Config.Version != JournalVersion:
				return st, fmt.Errorf("rpc: journal version %d, this build speaks %d",
					rec.Config.Version, JournalVersion)
			}
		}
		if err != nil {
			return st, fmt.Errorf("rpc: decode journal record %d: %w", st.records, err)
		}
		if err := apply(st.records, &rec); err != nil {
			return st, err
		}
		st.records++
		st.bytes += 8 + n
	}
}

// append frames one record into the write buffer. Durability waits for the
// next commit; ordering is already fixed here.
func (j *journal) append(rec *journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.buf = append(j.buf[:0], make([]byte, 8)...)
	if err := putRecord(&j.buf, rec); err != nil {
		return err
	}
	payload := j.buf[8:]
	binary.BigEndian.PutUint32(j.buf[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(j.buf[4:8], crc32.ChecksumIEEE(payload))
	if _, err := j.w.Write(j.buf); err != nil {
		return fmt.Errorf("rpc: append journal record: %w", err)
	}
	j.bytes.Add(len(j.buf))
	j.appends.Inc()
	return nil
}

// commit flushes the buffered records and fsyncs: everything appended so far
// survives a crash after commit returns.
func (j *journal) commit() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	start := j.reg.Now()
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("rpc: flush journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("rpc: fsync journal: %w", err)
	}
	j.commits.Inc()
	j.fsyncSec.Observe(j.reg.Since(start))
	return nil
}

// close commits and releases the file.
func (j *journal) close() error {
	if err := j.commit(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
