// Package store is the durable node state layer: an append-only,
// checksummed write-ahead log plus periodic snapshot/compaction, stdlib
// only. It records the events that make a site's posted inventory
// recoverable across a daemon crash — resource posts and withdrawals,
// active-attribute policy attachments, and reservation
// reserve/commit/release transitions — and rebuilds the node's state by
// replaying snapshot+WAL on restart (see docs/RECOVERY.md).
//
// Crash semantics: a record is durable once a Sync covering it has
// returned; appending only queues it. The SyncPolicy says who waits for
// that Sync, not who issues it. A torn final record (the write the crash
// interrupted) is detected by its CRC or truncated frame and dropped;
// every record before it survives. Compaction writes the full state as a
// snapshot and truncates the WAL; records carry monotonic sequence
// numbers so a crash between the snapshot rename and the WAL truncation
// replays cleanly (records at or below the snapshot's sequence are
// skipped).
package store

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"rbay/internal/metrics"
)

// File names inside a store directory.
const (
	// WALName is the append-only record log.
	WALName = "wal"
	// SnapName is the most recent compacted snapshot.
	SnapName = "snap"
	// snapTmpName is the in-progress snapshot, renamed over SnapName once
	// durable.
	snapTmpName = "snap.tmp"
)

// SyncPolicy selects who waits for the Sync that makes a record durable.
// Appending never touches the device under any policy.
type SyncPolicy int

const (
	// SyncAlways wants a Sync after every record (SyncDue) and makes
	// RecordOp wait for it: nothing acknowledged is ever lost. Concurrent
	// Syncs coalesce, so this is group commit.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves Sync to a periodic timer (the node arms it from
	// Log.SyncInterval) and nobody waits; a crash loses at most one
	// interval of events.
	SyncInterval
	// SyncNever leaves Sync to explicit calls and Close; nobody waits.
	SyncNever
)

// String returns the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag spelling.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return SyncAlways, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options tunes a Log.
type Options struct {
	// Policy selects the fsync policy. Default SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval period. Default 2s.
	Interval time.Duration
	// CompactEvery is how many appended records make the next Sync follow
	// its flush with a snapshot+truncate compaction. Default 4096.
	CompactEvery int
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 4096
	}
	return o
}

// record is one WAL entry; Kind is its on-disk kind byte (codec.go) and
// selects which of the other fields it carries.
type record struct {
	Seq    uint64
	Kind   byte
	Attr   string
	Val    any
	Script string
	Query  string
	// Exp is a reservation's expiry as Unix nanoseconds.
	Exp int64
	// Batch is a kindSetBatch record's key/value list. The whole batch
	// shares one frame, so a crash mid-write tears the frame's CRC and the
	// batch is dropped atomically on replay — all or nothing.
	Batch []BatchSet
	// OpRec is a kindOpUpsert record's full operation state; kindOpDelete
	// carries the retired op's ID in Query.
	OpRec *StoredOp
}

// BatchSet is one attribute write in a RecordSetBatch call.
type BatchSet struct {
	Name  string
	Value any
}

// StoredAttr is one recovered attribute: its value and, when an AA policy
// was attached, the script source.
type StoredAttr struct {
	Name   string
	Value  any
	Script string
}

// StoredReservation is the recovered reservation lock, if the node held
// one when it went down.
type StoredReservation struct {
	QueryID   string
	Expires   time.Time
	Committed bool
}

// State is the durable node state a replay reconstructs.
type State struct {
	// Seq is the highest applied record sequence number.
	Seq         uint64
	Attrs       map[string]StoredAttr
	Reservation *StoredReservation
	// Ops holds the gateway's durable operation records by ID.
	Ops map[string]StoredOp
}

// SortedAttrs returns the attributes ordered by name, for deterministic
// restoration.
func (s State) SortedAttrs() []StoredAttr {
	out := make([]StoredAttr, 0, len(s.Attrs))
	for _, a := range s.Attrs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// clone deep-copies the state so callers can hold it while the Log keeps
// mutating its live copy.
func (s State) clone() State {
	out := State{Seq: s.Seq, Attrs: make(map[string]StoredAttr, len(s.Attrs))}
	for k, v := range s.Attrs {
		out.Attrs[k] = v
	}
	if s.Reservation != nil {
		r := *s.Reservation
		out.Reservation = &r
	}
	if s.Ops != nil {
		out.Ops = make(map[string]StoredOp, len(s.Ops))
		for k, v := range s.Ops {
			v.Candidates = append([]OpCandidate(nil), v.Candidates...)
			out.Ops[k] = v
		}
	}
	return out
}

// setValue stores v under name as a replay would recover it.
func (s *State) setValue(name string, v any) {
	a := s.Attrs[name]
	a.Name = name
	a.Value = normValue(v)
	s.Attrs[name] = a
}

// apply folds one record into the state.
func (s *State) apply(r record) {
	if r.Seq > s.Seq {
		s.Seq = r.Seq
	}
	switch r.Kind {
	case kindSet:
		s.setValue(r.Attr, r.Val)
	case kindSetBatch:
		for _, kv := range r.Batch {
			s.setValue(kv.Name, kv.Value)
		}
	case kindDelete:
		delete(s.Attrs, r.Attr)
	case kindAttach:
		a := s.Attrs[r.Attr]
		a.Name = r.Attr
		a.Script = r.Script
		s.Attrs[r.Attr] = a
	case kindReserve:
		if rsv := s.Reservation; rsv != nil && rsv.QueryID == r.Query {
			rsv.Expires = time.Unix(0, r.Exp)
			return
		}
		s.Reservation = &StoredReservation{QueryID: r.Query, Expires: time.Unix(0, r.Exp)}
	case kindCommit:
		if rsv := s.Reservation; rsv != nil && rsv.QueryID == r.Query {
			rsv.Committed = true
		}
	case kindRelease:
		if rsv := s.Reservation; rsv != nil && rsv.QueryID == r.Query {
			s.Reservation = nil
		}
	case kindOpUpsert:
		if r.OpRec != nil {
			if s.Ops == nil {
				s.Ops = make(map[string]StoredOp)
			}
			s.Ops[r.OpRec.ID] = *r.OpRec
		}
	case kindOpDelete:
		delete(s.Ops, r.Query)
	}
}

// flushThreshold is the pending-buffer size at which the policies nobody
// waits on (SyncInterval/SyncNever) report SyncDue, so the buffer cannot
// grow without bound between timer syncs.
const flushThreshold = 256 << 10

// Log is one node's durable store: WAL + snapshot over a Dir. It is safe
// for concurrent use: the node's event context appends, while its
// flusher, the gateway's HTTP goroutines and shutdown call Sync.
//
// mu guards everything below it and is never held across a device call.
// Device calls belong to the flush leader — the one goroutine that set
// flushing — so appends keep queueing into pend while a write, an fsync
// or a whole compaction is in progress.
type Log struct {
	dir  Dir
	opts Options

	mu       sync.Mutex
	flushed  *sync.Cond        // signalled when a flush completes or the leader steps down
	met      *metrics.Registry // nil-safe; set via SetMetrics
	state    State
	pend     []byte // encoded frames not yet handed to the device
	pendN    int    // frames in pend
	spare    []byte // the previous flush's buffer, reused at the next swap
	durable  uint64 // highest sequence number a completed flush or snapshot covers
	sinceCpt int    // records appended since the last compaction
	flushing bool
	closed   bool
	firstErr error

	w File // owned by the flush leader
}

// Stats reports a Log's write-path counters.
type Stats struct {
	Seq      uint64
	Unsynced int
	FirstErr error
}

// Open loads the store in dir — snapshot first, then the WAL records past
// it, dropping a torn or corrupt tail — and returns the Log ready for
// appending plus the recovered state. A missing directory content is an
// empty store, not an error.
func Open(dir Dir, opts Options) (*Log, State, error) {
	l := &Log{
		dir:   dir,
		opts:  opts.withDefaults(),
		state: State{Attrs: make(map[string]StoredAttr)},
	}
	l.flushed = sync.NewCond(&l.mu)

	if raw, ok, err := dir.ReadFile(SnapName); err != nil {
		return nil, State{}, fmt.Errorf("store: read snapshot: %w", err)
	} else if ok {
		if l.state, err = decodeSnapshot(raw); err != nil {
			return nil, State{}, err
		}
	}

	raw, ok, err := dir.ReadFile(WALName)
	if err != nil {
		return nil, State{}, fmt.Errorf("store: read wal: %w", err)
	}
	if ok {
		recs, good, err := decodeWAL(raw)
		if err != nil {
			return nil, State{}, err
		}
		for _, r := range recs {
			if r.Seq <= l.state.Seq && r.Seq != 0 {
				// Already folded into the snapshot: the frame was written
				// after the snapshot that covers it, or the crash landed
				// between the snapshot rename and the WAL truncation.
				continue
			}
			l.state.apply(r)
		}
		if good < len(raw) {
			// Torn tail: drop it durably so the next append does not splice
			// valid records onto garbage.
			if err := dir.WriteFile(WALName, raw[:good]); err != nil {
				return nil, State{}, fmt.Errorf("store: truncate torn wal tail: %w", err)
			}
		}
	}

	w, err := dir.OpenAppend(WALName)
	if err != nil {
		return nil, State{}, fmt.Errorf("store: open wal: %w", err)
	}
	l.w = w
	l.durable = l.state.Seq
	return l, l.state.clone(), nil
}

// SetMetrics attaches a registry for the WAL write-path series
// (rbay_wal_fsync_total, rbay_wal_group_size, rbay_wal_flush_seconds,
// rbay_wal_bytes_total). The node wires this right after Open; a nil
// registry (or never calling this) keeps the store metric-free.
func (l *Log) SetMetrics(reg *metrics.Registry) {
	reg.Declare("rbay_wal_flush_seconds")
	reg.DeclareInt("rbay_wal_group_size")
	l.mu.Lock()
	l.met = reg
	l.mu.Unlock()
}

// append queues one record: the sequence number, the state fold and the
// position in the pending buffer are assigned in one critical section, so
// buffer order is sequence order no matter how many goroutines append. It
// never touches the device; Sync is the barrier that does. A failed or
// closed Log drops the record.
func (l *Log) append(r record) {
	l.mu.Lock()
	l.appendLocked(r)
	l.mu.Unlock()
}

// appendLocked returns the record's sequence number, 0 if it was dropped.
func (l *Log) appendLocked(r record) uint64 {
	if l.closed || l.firstErr != nil {
		return 0
	}
	l.state.Seq++
	r.Seq = l.state.Seq
	l.state.apply(r)
	var err error
	if l.pend, err = appendRecord(l.pend, r); err != nil {
		l.firstErr = err
		return 0
	}
	l.pendN++
	l.sinceCpt++
	return r.Seq
}

// RecordSet records an attribute post/update.
func (l *Log) RecordSet(name string, value any) {
	l.append(record{Kind: kindSet, Attr: name, Val: value})
}

// RecordSetBatch records a coalesced batch of attribute updates as ONE
// WAL frame — the ingest apply loop's amortization of per-Set append
// cost. Durability is all-or-nothing: the frame's CRC covers the whole
// batch, so a torn write drops every entry in it on replay, never a
// prefix. An empty batch records nothing.
func (l *Log) RecordSetBatch(entries []BatchSet) {
	if len(entries) == 0 {
		return
	}
	l.append(record{Kind: kindSetBatch, Batch: entries})
}

// RecordDelete records an attribute withdrawal.
func (l *Log) RecordDelete(name string) {
	l.append(record{Kind: kindDelete, Attr: name})
}

// RecordAttach records an AA policy attachment.
func (l *Log) RecordAttach(name, script string) {
	l.append(record{Kind: kindAttach, Attr: name, Script: script})
}

// RecordReserve records a reservation being taken or extended.
func (l *Log) RecordReserve(queryID string, expires time.Time) {
	l.append(record{Kind: kindReserve, Query: queryID, Exp: expires.UnixNano()})
}

// RecordCommit records a reservation commit (lease).
func (l *Log) RecordCommit(queryID string) {
	l.append(record{Kind: kindCommit, Query: queryID})
}

// RecordRelease records a reservation release.
func (l *Log) RecordRelease(queryID string) {
	l.append(record{Kind: kindRelease, Query: queryID})
}

// SyncDue reports whether the policy wants a Sync now: under SyncAlways
// whenever an appended record is not yet durable, otherwise only once the
// pending buffer has outgrown flushThreshold. The appender asks after
// each record and arranges the Sync off its own critical path.
func (l *Log) SyncDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncDueLocked()
}

func (l *Log) syncDueLocked() bool {
	if l.closed || l.firstErr != nil {
		return false
	}
	if l.opts.Policy == SyncAlways {
		return l.durable < l.state.Seq
	}
	return len(l.pend) >= flushThreshold
}

// Sync is the one durability barrier: it returns once every record
// appended before the call is written and fsynced, or with the error that
// prevented it. It may be called from any goroutine. Callers that arrive
// while a flush is in flight wait for it and then share the next one —
// one of them leads it, the rest follow — so N concurrent Syncs cost about
// one fsync. An error is sticky: the failed flush and every later Sync
// return it, and nothing more is written.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked(l.state.Seq)
}

// syncLocked returns once the record with sequence number target is
// durable. l.mu is held on entry and on return, not in between.
func (l *Log) syncLocked(target uint64) error {
	for l.firstErr == nil && l.durable < target {
		if l.flushing {
			l.flushed.Wait()
			continue
		}
		l.flushing = true
		l.flushLocked()
		if l.firstErr == nil && l.sinceCpt >= l.opts.CompactEvery {
			l.compactLocked()
		}
		l.stepDownLocked()
	}
	return l.firstErr
}

// leadLocked makes the caller the flush leader, waiting out any flush in
// flight. l.mu is held.
func (l *Log) leadLocked() {
	for l.flushing {
		l.flushed.Wait()
	}
	l.flushing = true
}

func (l *Log) stepDownLocked() {
	l.flushing = false
	l.flushed.Broadcast()
}

// flushLocked swaps the pending buffer out and, with l.mu released,
// writes and fsyncs it in one shot — one call, one fsync, however many
// frames piled up. The caller is the flush leader; l.mu is held on entry
// and on return.
func (l *Log) flushLocked() {
	if l.pendN == 0 || l.firstErr != nil {
		return
	}
	buf, frames, upto, met := l.pend, l.pendN, l.state.Seq, l.met
	l.pend, l.pendN = l.spare[:0], 0
	l.mu.Unlock()
	start := time.Now()
	n, err := l.w.Write(buf)
	if err == nil && n < len(buf) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = l.w.Sync()
	}
	if err == nil {
		met.Add("rbay_wal_bytes_total", uint64(n))
		met.Inc("rbay_wal_fsync_total")
		met.ObserveInt("rbay_wal_group_size", frames)
		met.Observe("rbay_wal_flush_seconds", time.Since(start))
	}
	l.mu.Lock()
	l.spare = buf[:0]
	if err != nil {
		l.firstErr = err
	} else {
		l.durable = upto
	}
	// Followers this flush covers return now, even if the leader goes on
	// to compact.
	l.flushed.Broadcast()
}

// SyncInterval returns the period the owner should call Sync at, or 0
// when the policy needs no timer.
func (l *Log) SyncInterval() time.Duration {
	if l.opts.Policy == SyncInterval {
		return l.opts.Interval
	}
	return 0
}

// Compact flushes, snapshots the current state and truncates the WAL.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.leadLocked()
	if !l.closed {
		l.flushLocked()
		if l.firstErr == nil {
			l.compactLocked()
		}
	}
	l.stepDownLocked()
	return l.firstErr
}

// compactLocked writes a snapshot of the live state durably, renames it
// into place, then truncates the WAL, all with l.mu released: appends keep
// queueing, and since the caller is the flush leader none of them reaches
// the WAL file meanwhile. Crash ordering: the snapshot's sequence number
// is at least that of every frame in the file being truncated, and frames
// at or below it that are still pending are skipped on replay once they
// are written.
func (l *Log) compactLocked() {
	snap := l.state.clone()
	l.sinceCpt = 0
	l.mu.Unlock()
	err := l.writeSnapshot(snap)
	l.mu.Lock()
	if err != nil {
		l.firstErr = err
	} else if snap.Seq > l.durable {
		l.durable = snap.Seq
	}
}

func (l *Log) writeSnapshot(snap State) error {
	raw, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	if err := l.dir.WriteFile(snapTmpName, raw); err != nil {
		return err
	}
	if err := l.dir.Rename(snapTmpName, SnapName); err != nil {
		return err
	}
	l.w.Close()
	if err := l.dir.WriteFile(WALName, nil); err != nil {
		return err
	}
	w, err := l.dir.OpenAppend(WALName)
	if err != nil {
		return err
	}
	l.w = w
	return nil
}

// State returns a copy of the live (not necessarily synced) state.
func (l *Log) State() State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.clone()
}

// Err returns the first write error the Log has seen.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstErr
}

// LogStats returns the Log's counters.
func (l *Log) LogStats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Seq: l.state.Seq, Unsynced: int(l.state.Seq - l.durable), FirstErr: l.firstErr}
}

// Close flushes what is pending and closes the WAL handle. Further
// records are dropped.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.firstErr
	}
	l.closed = true
	l.leadLocked()
	l.flushLocked()
	if err := l.w.Close(); err != nil && l.firstErr == nil {
		l.firstErr = err
	}
	l.stepDownLocked()
	return l.firstErr
}
