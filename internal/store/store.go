// Package store is the durable node state layer: an append-only,
// checksummed write-ahead log plus periodic snapshot/compaction, stdlib
// only. It records the events that make a site's posted inventory
// recoverable across a daemon crash — resource posts and withdrawals,
// active-attribute policy attachments, and reservation
// reserve/commit/release transitions — and rebuilds the node's state by
// replaying snapshot+WAL on restart (see docs/RECOVERY.md).
//
// Crash semantics: a record is durable once it has been fsynced, which
// the SyncPolicy controls. A torn final record (the write the crash
// interrupted) is detected by its CRC or truncated frame and dropped;
// every record before it survives. Compaction writes the full state as a
// snapshot and truncates the WAL; records carry monotonic sequence
// numbers so a crash between the snapshot rename and the WAL truncation
// replays cleanly (records at or below the snapshot's sequence are
// skipped).
package store

import (
	"fmt"
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

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: nothing acknowledged is ever
	// lost, at one fsync per event.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves fsync to a periodic timer (the node arms it from
	// Log.SyncInterval); a crash loses at most one interval of events.
	SyncInterval
	// SyncNever leaves fsync entirely to explicit Sync calls and Close.
	SyncNever
	// SyncGroup is group commit: concurrent appenders hand frames to a
	// single writer goroutine that coalesces them into one buffered write
	// plus one fsync per flush window. Each appender blocks until its
	// frame's group is durable, so callers keep SyncAlways's
	// durable-before-return contract while concurrent appends share the
	// fsync cost.
	SyncGroup
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
	case SyncGroup:
		return "group"
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
	case "group":
		return SyncGroup, nil
	default:
		return SyncAlways, fmt.Errorf("store: unknown fsync policy %q (want always, group, interval, or never)", s)
	}
}

// Options tunes a Log.
type Options struct {
	// Policy selects the fsync policy. Default SyncAlways.
	Policy SyncPolicy
	// Interval is the SyncInterval period. Default 2s.
	Interval time.Duration
	// CompactEvery is how many appended records trigger a
	// snapshot+truncate compaction. Default 4096.
	CompactEvery int
	// GroupWindow is how long the SyncGroup writer waits after the first
	// frame of a group before flushing, letting concurrent appenders pile
	// on. Default 500µs; negative flushes immediately (coalescing only
	// what arrived while the previous flush was in progress).
	GroupWindow time.Duration
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 4096
	}
	if o.GroupWindow == 0 {
		o.GroupWindow = 500 * time.Microsecond
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

// flushThreshold bounds the pending-frame buffer for the non-blocking
// policies (SyncInterval/SyncNever): once this many encoded bytes pile
// up they are written (not fsynced) so the buffer cannot grow without
// bound between timer syncs. Durability is unchanged — only fsync makes
// bytes survive a crash.
const flushThreshold = 256 << 10

// group is one group-commit flush unit: every appender whose frame
// entered the buffer while this group was open waits on done, and err
// carries the store's sticky error state as of the flush.
type group struct {
	done chan struct{}
	err  error
}

// Log is one node's durable store: WAL + snapshot over a Dir. It is safe
// for concurrent use (rbayd syncs from a timer goroutine while the node's
// event loop appends; under SyncGroup the gateway's HTTP goroutines and
// the node event loop append concurrently).
type Log struct {
	mu   sync.Mutex
	dir  Dir
	opts Options
	met  *metrics.Registry // nil-safe; set via SetMetrics

	w        File
	state    State
	buf      []byte // encoded frames accepted but not yet written to w
	unsynced int    // records appended since the last sync
	sinceCpt int    // records appended since the last compaction
	closed   bool
	firstErr error

	// Group-commit state (SyncGroup only). grp is the currently open
	// group; grpWake nudges the writer goroutine (capacity 1, lossy);
	// grpQuit stops it on Close.
	grp     *group
	grpWake chan struct{}
	grpQuit chan struct{}
	grpDone sync.WaitGroup
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
	opts = opts.withDefaults()
	l := &Log{
		dir:   dir,
		opts:  opts,
		state: State{Attrs: make(map[string]StoredAttr)},
	}

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
				// Already folded into the snapshot (crash landed between the
				// snapshot rename and the WAL truncation).
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
	if l.opts.Policy == SyncGroup {
		l.grpWake = make(chan struct{}, 1)
		l.grpQuit = make(chan struct{})
		l.grpDone.Add(1)
		go l.groupLoop()
	}
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

// append accepts one record, applying the sync and compaction policies.
// The sequence number, state fold, and buffer position are all assigned
// under one critical section, so buffer order is sequence order no
// matter how many goroutines append. Append errors are sticky: the
// first one is kept and surfaced by Sync/Close/Err so the node can
// report a dying disk.
func (l *Log) append(r record) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.state.Seq++
	r.Seq = l.state.Seq
	l.state.apply(r)
	var err error
	if l.buf, err = appendRecord(l.buf, r); err != nil {
		l.noteErr(err)
		l.mu.Unlock()
		return
	}
	l.unsynced++
	l.sinceCpt++
	switch l.opts.Policy {
	case SyncAlways:
		l.syncLocked()
		l.maybeCompactLocked()
		l.mu.Unlock()
	case SyncGroup:
		// Join (or open) the current flush group, then release the lock
		// BEFORE waiting so other appenders can pile into the group and
		// the writer goroutine can take the lock to flush it.
		g := l.joinGroupLocked()
		l.maybeCompactLocked()
		l.mu.Unlock()
		<-g.done
	default:
		if len(l.buf) >= flushThreshold {
			l.writeBufLocked()
		}
		l.maybeCompactLocked()
		l.mu.Unlock()
	}
}

func (l *Log) maybeCompactLocked() {
	if l.sinceCpt >= l.opts.CompactEvery {
		l.compactLocked()
	}
}

// joinGroupLocked returns the open flush group, creating it (and waking
// the writer goroutine) when this frame is the group's first.
func (l *Log) joinGroupLocked() *group {
	if l.grp == nil {
		l.grp = &group{done: make(chan struct{})}
		select {
		case l.grpWake <- struct{}{}:
		default:
		}
	}
	return l.grp
}

// finishGroupLocked completes the open group, if any: waiters observe
// the store's sticky error as their append outcome.
func (l *Log) finishGroupLocked() {
	if l.grp == nil {
		return
	}
	l.grp.err = l.firstErr
	close(l.grp.done)
	l.grp = nil
}

// groupLoop is the SyncGroup writer goroutine: woken by a group's first
// appender, it waits out the flush window so concurrent appenders can
// join, then flushes the whole group with one write and one fsync.
func (l *Log) groupLoop() {
	defer l.grpDone.Done()
	for {
		select {
		case <-l.grpQuit:
			return
		case <-l.grpWake:
		}
		if w := l.opts.GroupWindow; w > 0 {
			time.Sleep(w)
		}
		l.mu.Lock()
		l.syncLocked()
		l.mu.Unlock()
	}
}

// writeBufLocked hands the pending frame buffer to the WAL file handle
// (write, not fsync) and resets it.
func (l *Log) writeBufLocked() {
	if len(l.buf) == 0 || l.w == nil {
		return
	}
	n := len(l.buf)
	_, err := l.w.Write(l.buf)
	l.buf = l.buf[:0]
	if err != nil {
		l.noteErr(err)
		return
	}
	l.met.Add("rbay_wal_bytes_total", uint64(n))
}

func (l *Log) noteErr(err error) {
	if l.firstErr == nil {
		l.firstErr = err
	}
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

// Sync makes every appended record durable and returns the first write
// error seen so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncLocked()
	return l.firstErr
}

// syncLocked flushes the pending buffer and fsyncs in one shot — the
// group-commit flush unit — then completes the open group so blocked
// appenders return. One call, one fsync, however many frames piled up.
func (l *Log) syncLocked() {
	l.writeBufLocked()
	if l.unsynced > 0 && l.w != nil && l.firstErr == nil {
		frames := l.unsynced
		start := time.Now()
		if err := l.w.Sync(); err != nil {
			l.noteErr(err)
		} else {
			l.unsynced = 0
			l.met.Inc("rbay_wal_fsync_total")
			l.met.ObserveInt("rbay_wal_group_size", frames)
			l.met.Observe("rbay_wal_flush_seconds", time.Since(start))
		}
	}
	l.finishGroupLocked()
}

// SyncInterval returns the period the owner should call Sync at, or 0
// when the policy needs no timer.
func (l *Log) SyncInterval() time.Duration {
	if l.opts.Policy == SyncInterval {
		return l.opts.Interval
	}
	return 0
}

// Compact snapshots the current state and truncates the WAL.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compactLocked()
	return l.firstErr
}

// compactLocked writes the snapshot durably, renames it into place, then
// truncates the WAL. Crash ordering: the snapshot carries the last
// applied sequence number, so replaying a stale WAL over a fresh snapshot
// skips everything the snapshot already holds.
func (l *Log) compactLocked() {
	l.syncLocked()
	if l.firstErr != nil {
		return
	}
	raw, err := encodeSnapshot(l.state)
	if err != nil {
		l.noteErr(err)
		return
	}
	if err := l.dir.WriteFile(snapTmpName, raw); err != nil {
		l.noteErr(err)
		return
	}
	if err := l.dir.Rename(snapTmpName, SnapName); err != nil {
		l.noteErr(err)
		return
	}
	if l.w != nil {
		l.w.Close()
		l.w = nil
	}
	if err := l.dir.WriteFile(WALName, nil); err != nil {
		l.noteErr(err)
		return
	}
	w, err := l.dir.OpenAppend(WALName)
	if err != nil {
		l.noteErr(err)
		return
	}
	l.w = w
	l.unsynced = 0
	l.sinceCpt = 0
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
	return Stats{Seq: l.state.Seq, Unsynced: l.unsynced, FirstErr: l.firstErr}
}

// Close syncs and closes the WAL handle. Further records are dropped.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.firstErr
		l.mu.Unlock()
		return err
	}
	l.closed = true
	l.syncLocked()
	if l.w != nil {
		if err := l.w.Close(); err != nil {
			l.noteErr(err)
		}
		l.w = nil
	}
	quit := l.grpQuit
	err := l.firstErr
	l.mu.Unlock()
	if quit != nil {
		close(quit)
		l.grpDone.Wait()
	}
	return err
}
