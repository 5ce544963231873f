package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"rbay/internal/wire"
)

func openOrDie(t *testing.T, dir Dir, opts Options) (*Log, State) {
	t.Helper()
	l, st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, st
}

// TestValueCodecRoundTrip pins the value domain: what each Go type becomes
// through encValue/decValue, and that the live state holds exactly what a
// replay recovers.
func TestValueCodecRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		in, want any
		blob     string // the JSON text a vtJSON value must be stored as
	}{
		{"nil", nil, nil, ""},
		{"bool", true, true, ""},
		{"int", int(-7), int(-7), ""},
		{"int32", int32(42), int(42), ""},
		{"int64", int64(1) << 40, int(1) << 40, ""},
		{"float32", float32(0.5), float64(0.5), ""},
		{"float64", float64(3.25), float64(3.25), ""},
		{"string", "c3.large", "c3.large", ""},
		{"strs-nil", []string(nil), []string(nil), ""},
		{"strs-empty", []string{}, []string(nil), ""},
		{"strs", []string{"a", "b"}, []string{"a", "b"}, ""},
		{"nested-map", map[string]any{"b": 1, "a": map[string]int{"z": 2}},
			map[string]any{"a": map[string]any{"z": float64(2)}, "b": float64(1)},
			`{"a":{"z":2},"b":1}`}, // keys sorted at every level: deterministic WAL bytes
		{"unmarshalable", make(chan int), nil, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := wire.GetEncoder()
			defer wire.PutEncoder(e)
			encValue(e, c.in)
			d := wire.NewDecoder(e.Bytes())
			got := decValue(d)
			if d.Err() != nil || d.Remaining() != 0 {
				t.Fatalf("decode: err=%v, %d bytes left", d.Err(), d.Remaining())
			}
			// DeepEqual on two `any`s compares dynamic types too: int stays
			// int, not float64.
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("decoded %#v (%T), want %#v (%T)", got, got, c.want, c.want)
			}
			if c.blob != "" && (e.Bytes()[0] != vtJSON || !bytes.HasSuffix(e.Bytes(), []byte(c.blob))) {
				t.Errorf("encoded %q, want a vtJSON blob %s", e.Bytes(), c.blob)
			}

			dir := NewMemDir()
			l, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
			l.RecordSet("v", c.in)
			l.RecordSetBatch([]BatchSet{{Name: "bv", Value: c.in}})
			live := l.State()
			l.Close()
			_, replayed := openOrDie(t, dir, Options{})
			if !reflect.DeepEqual(live, replayed) {
				t.Errorf("live state %+v != replayed %+v", live, replayed)
			}
			if got := replayed.Attrs["v"].Value; !reflect.DeepEqual(got, c.want) {
				t.Errorf("replayed %#v (%T), want %#v (%T)", got, got, c.want, c.want)
			}
		})
	}
}

// writeEvents drives one of every record kind through l, covering every
// value tag the codec knows.
func writeEvents(l *Log) {
	l.RecordSet("GPU", true)
	l.RecordSet("mem_gb", 8)
	l.RecordSet("load", 0.75)
	l.RecordSet("zone", "us-east")
	l.RecordSet("tags", []string{"a", "b"})
	l.RecordSet("nothing", nil)
	l.RecordSet("meta", map[string]any{"k": float64(1), "j": "x"})
	l.RecordSetBatch([]BatchSet{{Name: "b1", Value: 1}, {Name: "b2", Value: "two"}, {Name: "gone", Value: true}})
	l.RecordDelete("gone")
	l.RecordAttach("GPU", "function read() return 1 end")
	l.RecordReserve("q1", time.Unix(100, 500))
	l.RecordCommit("q1")
	l.RecordOp(StoredOp{
		ID: "op1", Kind: "reserve", State: "done", IdemKey: "ik", Tenant: "t",
		Query: "select *", Payload: "p", Caller: "c", Mode: "m",
		QueryID: "q1", Candidates: []OpCandidate{{NodeID: "n1", Site: "s1", Host: "h1"}, {NodeID: "n2"}},
		Shortfall: 2, CreatedNanos: 10, UpdatedNanos: 20,
	})
	l.RecordOp(StoredOp{ID: "op2", Kind: "attrs", State: "pending", Updates: `[{"name":"x","value":1}]`, CreatedNanos: 30})
	l.RecordOpDelete("op2")
}

func TestAppendReplayBasic(t *testing.T) {
	dir := NewMemDir()
	l, st := openOrDie(t, dir, Options{Policy: SyncAlways})
	if len(st.Attrs) != 0 || st.Reservation != nil {
		t.Fatalf("fresh store not empty: %+v", st)
	}
	l.RecordSet("GPU", true)
	l.RecordSet("mem_gb", 8)
	l.RecordAttach("CPU_utilization", "function read() return 0.5 end")
	l.RecordSet("CPU_utilization", 0.5)
	l.RecordSet("gone", "x")
	l.RecordDelete("gone")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, st2 := openOrDie(t, dir, Options{})
	if _, ok := st2.Attrs["gone"]; ok {
		t.Fatal("deleted attribute resurrected")
	}
	if got := st2.Attrs["GPU"].Value; got != true {
		t.Fatalf("GPU = %#v, want true", got)
	}
	if got := st2.Attrs["mem_gb"].Value; got != 8 {
		t.Fatalf("mem_gb = %#v (%T), want int 8", got, got)
	}
	cpu := st2.Attrs["CPU_utilization"]
	if cpu.Script == "" || cpu.Value != 0.5 {
		t.Fatalf("CPU_utilization lost script or value: %+v", cpu)
	}
}

func TestReservationReplay(t *testing.T) {
	exp := time.Unix(100, 500)
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
	l.RecordReserve("q1", exp)
	l.RecordCommit("q1")
	l.Close()

	_, st := openOrDie(t, dir, Options{})
	r := st.Reservation
	if r == nil || r.QueryID != "q1" || !r.Committed || !r.Expires.Equal(exp) {
		t.Fatalf("reservation = %+v, want committed q1 expiring %v", r, exp)
	}

	l2, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
	l2.RecordRelease("q1")
	l2.Close()
	_, st2 := openOrDie(t, dir, Options{})
	if st2.Reservation != nil {
		t.Fatalf("released reservation survived: %+v", st2.Reservation)
	}
}

func TestTornTailDropped(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncNever})
	l.RecordSet("a", 1)
	l.RecordSet("b", 2)
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Appended but never synced: the crash tears this record.
	l.RecordSet("c", 3)
	dir.Crash()

	_, st := openOrDie(t, dir, Options{})
	if _, ok := st.Attrs["c"]; ok {
		t.Fatal("unsynced record survived the crash")
	}
	if st.Attrs["a"].Value != 1 || st.Attrs["b"].Value != 2 {
		t.Fatalf("synced records lost: %+v", st.Attrs)
	}
}

func TestCorruptTailTruncated(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways})
	l.RecordSet("a", 1)
	l.RecordSet("b", 2)
	l.Close()

	// Plant garbage after the valid records, as if a partial final frame
	// made it to disk: a plausible length prefix with a wrong checksum.
	dir.AppendSynced(WALName, []byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y'})
	before := len(dir.Bytes(WALName))

	l2, st := openOrDie(t, dir, Options{Policy: SyncAlways})
	if st.Attrs["a"].Value != 1 || st.Attrs["b"].Value != 2 {
		t.Fatalf("records before the corrupt tail lost: %+v", st.Attrs)
	}
	if after := len(dir.Bytes(WALName)); after >= before {
		t.Fatalf("corrupt tail not truncated: %d -> %d bytes", before, after)
	}
	// Appending after truncation must produce a cleanly replayable log.
	l2.RecordSet("c", 3)
	l2.Close()
	_, st3 := openOrDie(t, dir, Options{})
	if st3.Attrs["c"].Value != 3 || st3.Attrs["a"].Value != 1 {
		t.Fatalf("append after truncation broke replay: %+v", st3.Attrs)
	}
}

func TestSnapshotWALReplayEquivalence(t *testing.T) {
	// Same event sequence through a compacting store and a WAL-only store
	// must recover identical state.
	events := func(l *Log) {
		for i := 0; i < 10; i++ {
			l.RecordSet("a", i)
			l.RecordSet("b", float64(i)/2)
			if err := l.Sync(); err != nil { // compaction rides on Sync
				t.Fatal(err)
			}
		}
		l.RecordAttach("a", "script-a")
		l.RecordSet("gone", true)
		l.RecordDelete("gone")
		l.RecordReserve("q", time.Unix(9, 0))
		l.RecordCommit("q")
	}

	walOnly := NewMemDir()
	l1, _ := openOrDie(t, walOnly, Options{Policy: SyncAlways, CompactEvery: 1 << 20})
	events(l1)
	l1.Close()

	compacting := NewMemDir()
	l2, _ := openOrDie(t, compacting, Options{Policy: SyncAlways, CompactEvery: 3})
	events(l2)
	l2.Close()

	_, st1 := openOrDie(t, walOnly, Options{})
	_, st2 := openOrDie(t, compacting, Options{})
	st1.Seq, st2.Seq = 0, 0 // seq differs by compaction timing; state must not
	if !reflect.DeepEqual(st1.Attrs, st2.Attrs) {
		t.Fatalf("attrs diverge:\nwal-only:   %+v\ncompacting: %+v", st1.Attrs, st2.Attrs)
	}
	if !reflect.DeepEqual(st1.Reservation, st2.Reservation) {
		t.Fatalf("reservation diverges: %+v vs %+v", st1.Reservation, st2.Reservation)
	}
	// The compacting store must actually have compacted.
	if snap := compacting.Bytes(SnapName); len(snap) == 0 {
		t.Fatal("compacting store produced no snapshot")
	}
}

func TestDoubleRestartIdempotent(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways, CompactEvery: 4})
	for i := 0; i < 9; i++ {
		l.RecordSet("k", i)
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	l.RecordReserve("q", time.Unix(50, 0))
	l.Close()

	_, st1 := openOrDie(t, dir, Options{})
	wal1 := dir.Bytes(WALName)
	snap1 := dir.Bytes(SnapName)
	// Second restart with no writes in between: same state, same files.
	_, st2 := openOrDie(t, dir, Options{})
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("double restart diverged:\n1: %+v\n2: %+v", st1, st2)
	}
	if !bytes.Equal(wal1, dir.Bytes(WALName)) || !bytes.Equal(snap1, dir.Bytes(SnapName)) {
		t.Fatal("restart without writes mutated store files")
	}
}

func TestCompactionCrashOrdering(t *testing.T) {
	// Crash after the snapshot rename but before the WAL truncation: the
	// WAL still holds records the snapshot already folded in. Replay must
	// skip them (by seq) and not, e.g., resurrect a released reservation.
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways, CompactEvery: 1 << 20})
	l.RecordSet("a", 1)
	l.RecordReserve("q", time.Unix(5, 0))
	l.RecordRelease("q")
	l.RecordSet("a", 2)
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	l.Close()

	// Simulate the stale WAL surviving next to the fresh snapshot.
	stale := NewMemDir()
	stale.AppendSynced(SnapName, dir.Bytes(SnapName))
	wl, _ := openOrDie(t, NewMemDir(), Options{Policy: SyncAlways, CompactEvery: 1 << 20})
	wl.RecordSet("a", 1)
	wl.RecordReserve("q", time.Unix(5, 0))
	wl.RecordRelease("q")
	wl.RecordSet("a", 2)
	wl.Close()

	_, st := openOrDie(t, stale, Options{})
	if st.Attrs["a"].Value != 2 {
		t.Fatalf("a = %#v, want 2", st.Attrs["a"].Value)
	}
	if st.Reservation != nil {
		t.Fatalf("stale WAL resurrected released reservation: %+v", st.Reservation)
	}
}

// TestBinarySnapshotRoundTrip drives every record kind through a
// compacting store and requires the snapshot replay to match the
// WAL replay exactly, op records and reservation included.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	walOnly, compacting := NewMemDir(), NewMemDir()
	l1, _ := openOrDie(t, walOnly, Options{Policy: SyncAlways, CompactEvery: 1 << 20})
	writeEvents(l1)
	l1.Close()
	l2, _ := openOrDie(t, compacting, Options{Policy: SyncAlways, CompactEvery: 1 << 20})
	writeEvents(l2)
	if err := l2.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	l2.Close()

	if !bytes.HasPrefix(compacting.Bytes(SnapName), snapMagic) {
		t.Fatal("snapshot lacks the magic")
	}
	_, st1 := openOrDie(t, walOnly, Options{})
	_, st2 := openOrDie(t, compacting, Options{})
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("snapshot replay diverges from WAL replay:\nwal:  %+v\nsnap: %+v", st1, st2)
	}
	if op := st2.Ops["op1"]; len(op.Candidates) != 2 || op.Candidates[0].Host != "h1" || op.Shortfall != 2 {
		t.Fatalf("op record lost detail through the snapshot: %+v", op)
	}
	if _, ok := st2.Ops["op2"]; ok {
		t.Fatal("retired op resurrected by the snapshot")
	}
}

// goldenEvents is the fixed call sequence testdata/golden-v1 was written
// with: every record kind and every value tag, compacted once so the
// snapshot holds attributes, a committed reservation and an op, then every
// kind again so the WAL does too.
func goldenEvents(t *testing.T, l *Log) {
	t.Helper()
	writeEvents(l)
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	writeEvents(l)
	l.RecordSetBatch([]BatchSet{
		{Name: "i32", Value: int32(-3)},
		{Name: "i64", Value: int64(1) << 40},
		{Name: "f32", Value: float32(0.5)},
		{Name: "empty", Value: []string{}},
		{Name: "nested", Value: map[string]any{"b": []any{"x", 1.5}, "a": map[string]any{"z": true}}},
	})
	l.RecordSet("unmarshalable", make(chan int))
	l.RecordRelease("q1")
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden-v1", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenDirReplay: the checked-in dir must keep replaying to the same
// typed state — this is what stops a codec change from orphaning data
// dirs in the field.
func TestGoldenDirReplay(t *testing.T) {
	dir := NewMemDir()
	dir.AppendSynced(SnapName, readGolden(t, SnapName))
	dir.AppendSynced(WALName, readGolden(t, WALName))
	_, st := openOrDie(t, dir, Options{})

	script := "function read() return 1 end"
	want := State{
		Seq: 33,
		Attrs: map[string]StoredAttr{
			"GPU":           {Name: "GPU", Value: true, Script: script},
			"mem_gb":        {Name: "mem_gb", Value: int(8)},
			"load":          {Name: "load", Value: float64(0.75)},
			"zone":          {Name: "zone", Value: "us-east"},
			"tags":          {Name: "tags", Value: []string{"a", "b"}},
			"nothing":       {Name: "nothing", Value: nil},
			"meta":          {Name: "meta", Value: map[string]any{"k": float64(1), "j": "x"}},
			"b1":            {Name: "b1", Value: int(1)},
			"b2":            {Name: "b2", Value: "two"},
			"i32":           {Name: "i32", Value: int(-3)},
			"i64":           {Name: "i64", Value: int(1) << 40},
			"f32":           {Name: "f32", Value: float64(0.5)},
			"empty":         {Name: "empty", Value: []string(nil)},
			"nested":        {Name: "nested", Value: map[string]any{"a": map[string]any{"z": true}, "b": []any{"x", 1.5}}},
			"unmarshalable": {Name: "unmarshalable", Value: nil},
		},
		Ops: map[string]StoredOp{"op1": {
			ID: "op1", Kind: "reserve", State: "done", IdemKey: "ik", Tenant: "t",
			Query: "select *", Payload: "p", Caller: "c", Mode: "m",
			QueryID: "q1", Candidates: []OpCandidate{{NodeID: "n1", Site: "s1", Host: "h1"}, {NodeID: "n2"}},
			Shortfall: 2, CreatedNanos: 10, UpdatedNanos: 20,
		}},
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("golden dir replayed to\n%#v\nwant\n%#v", st, want)
	}

	// The WAL released the reservation; the snapshot alone still holds it.
	snapOnly := NewMemDir()
	snapOnly.AppendSynced(SnapName, readGolden(t, SnapName))
	_, st = openOrDie(t, snapOnly, Options{})
	if r := st.Reservation; r == nil || r.QueryID != "q1" || !r.Committed || !r.Expires.Equal(time.Unix(100, 500)) {
		t.Fatalf("golden snapshot reservation = %+v, want committed q1 expiring at 100s+500ns", r)
	}
	if st.Seq != 15 || len(st.Attrs) != 9 || len(st.Ops) != 1 {
		t.Fatalf("golden snapshot holds seq %d, %d attrs, %d ops; want 15, 9, 1", st.Seq, len(st.Attrs), len(st.Ops))
	}
}

// TestGoldenDirReencode: the same calls must keep producing the same
// bytes — the format has one encoding, and it is deterministic.
func TestGoldenDirReencode(t *testing.T) {
	dir := NewMemDir()
	l, _ := openOrDie(t, dir, Options{Policy: SyncAlways, CompactEvery: 1 << 20})
	goldenEvents(t, l)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, name := range []string{WALName, SnapName} {
		if got, want := dir.Bytes(name), readGolden(t, name); !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata/golden-v1/%s:\ngot  %x\nwant %x", name, name, got, want)
		}
	}
}

// frame wraps body in the WAL envelope with a correct length and CRC.
func frame(body string) []byte { return appendFrame(nil, []byte(body)) }

// TestUndecodableFrameFailsOpen: bytes that pass their checksum but do
// not decode were written whole by some other build. Open must refuse
// them — naming where and what — and must not touch the dir; truncating
// there, as for a torn tail, would erase acknowledged data.
func TestUndecodableFrameFailsOpen(t *testing.T) {
	good := NewMemDir()
	l, _ := openOrDie(t, good, Options{Policy: SyncAlways})
	l.RecordSet("a", 1)
	l.Close()
	intact := good.Bytes(WALName)

	cases := []struct {
		name      string
		wal, snap []byte
		wantErr   []string // substrings the error must carry
		wantHint  bool     // whether it must say how to upgrade
	}{
		{"json-wal", frame(`{"q":1,"op":"set","a":"x","v":{"t":"i","i":1}}`), nil,
			[]string{"offset 0", "kind byte 0x7b"}, true},
		{"json-wal-after-valid-frames", append(append([]byte(nil), intact...), frame(`{"q":2,"op":"del","a":"a"}`)...), nil,
			[]string{"offset " + strconv.Itoa(len(intact)), "kind byte 0x7b"}, true},
		{"unknown-kind", append(append([]byte(nil), intact...), frame("\x63\x02future")...), nil,
			[]string{"offset " + strconv.Itoa(len(intact)), "kind byte 0x63"}, false},
		{"known-kind-bad-payload", frame("\x01\x01\x01a\x09"), nil,
			[]string{"offset 0", "kind byte 0x01"}, false},
		{"json-snap", intact, []byte(`{"seq":1,"attrs":[{"name":"a","val":{"t":"i","i":1}}]}`),
			[]string{"rbaysnap magic"}, true},
		{"no-magic-snap", intact, []byte("not a snapshot"),
			[]string{"rbaysnap magic"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := NewMemDir()
			dir.AppendSynced(WALName, c.wal)
			if c.snap != nil {
				dir.AppendSynced(SnapName, c.snap)
			}
			_, _, err := Open(dir, Options{Policy: SyncAlways})
			if err == nil {
				t.Fatal("Open accepted a dir it cannot decode")
			}
			for _, want := range c.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if got := strings.Contains(err.Error(), "pre-binary build"); got != c.wantHint {
				t.Errorf("error %q: upgrade hint present=%v, want %v", err, got, c.wantHint)
			}
			if !bytes.Equal(dir.Bytes(WALName), c.wal) || !bytes.Equal(dir.Bytes(SnapName), c.snap) {
				t.Error("failed Open modified the dir")
			}
			for _, name := range dir.Files() {
				if name != WALName && name != SnapName {
					t.Errorf("failed Open created %s", name)
				}
			}
		})
	}
}

func TestMemDirCrashSemantics(t *testing.T) {
	d := NewMemDir()
	if err := d.WriteFile("durable", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f, _ := d.OpenAppend("never-synced")
	f.Write([]byte("gone"))
	g, _ := d.OpenAppend("partial")
	g.Write([]byte("keep"))
	g.Sync()
	g.Write([]byte("-lost"))
	d.Crash()

	if _, ok, _ := d.ReadFile("never-synced"); ok {
		t.Fatal("never-synced file survived crash")
	}
	if b := d.Bytes("partial"); string(b) != "keep" {
		t.Fatalf("partial = %q, want synced prefix %q", b, "keep")
	}
	if b := d.Bytes("durable"); string(b) != "x" {
		t.Fatalf("durable = %q, want %q", b, "x")
	}
}

func TestOSDirRoundTrip(t *testing.T) {
	d, err := OpenOSDir(t.TempDir() + "/store")
	if err != nil {
		t.Fatalf("OpenOSDir: %v", err)
	}
	l, _ := openOrDie(t, d, Options{Policy: SyncAlways, CompactEvery: 3})
	l.RecordSet("GPU", true)
	for i := 0; i < 8; i++ {
		l.RecordSet("mem_gb", 4+i)
	}
	l.RecordReserve("q", time.Unix(77, 0))
	l.Close()

	_, st := openOrDie(t, d, Options{})
	if st.Attrs["GPU"].Value != true || st.Attrs["mem_gb"].Value != 11 {
		t.Fatalf("OSDir replay wrong: %+v", st.Attrs)
	}
	if st.Reservation == nil || st.Reservation.QueryID != "q" {
		t.Fatalf("OSDir reservation lost: %+v", st.Reservation)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("String() = %q, want %q", got.String(), s)
		}
	}
	// "group" was an alias of always for one release after PR 15.
	for _, s := range []string{"group", "sometimes"} {
		if _, err := ParseSyncPolicy(s); err == nil || !strings.Contains(err.Error(), "unknown fsync policy") {
			t.Errorf("ParseSyncPolicy(%q) error = %v, want the unknown-policy error", s, err)
		}
	}
}
