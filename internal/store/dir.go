package store

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
)

// Dir abstracts the directory a Log persists into. Two implementations
// exist: OSDir over a real filesystem directory (what rbayd -data-dir
// uses) and MemDir, a crash-consistent in-memory disk that the chaos
// harness cuts at the synced watermark to simulate a node dying
// mid-write — deterministically, with zero real I/O.
type Dir interface {
	// ReadFile returns a file's full contents. ok is false when the file
	// does not exist (not an error: a fresh store has no files yet).
	ReadFile(name string) (data []byte, ok bool, err error)
	// WriteFile replaces a file's contents durably (written and synced
	// before return). Callers that need atomic replacement write a
	// temporary name and Rename over the target.
	WriteFile(name string, data []byte) error
	// OpenAppend opens a file for appending, creating it when missing.
	// Appended bytes are durable only after File.Sync.
	OpenAppend(name string) (File, error)
	// Rename atomically replaces newName with oldName's content.
	Rename(oldName, newName string) error
	// Remove deletes a file; removing a missing file is not an error.
	Remove(name string) error
}

// File is an append handle into a Dir.
type File interface {
	io.Writer
	// Sync makes every byte written so far durable.
	Sync() error
	Close() error
}

// ---------------------------------------------------------------------------
// OSDir

// OSDir is a Dir over a real filesystem directory.
type OSDir struct {
	path string
}

// OpenOSDir creates the directory if needed and returns it as a Dir.
func OpenOSDir(path string) (*OSDir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	return &OSDir{path: path}, nil
}

// Path returns the underlying directory path.
func (d *OSDir) Path() string { return d.path }

// ReadFile implements Dir.
func (d *OSDir) ReadFile(name string) ([]byte, bool, error) {
	b, err := os.ReadFile(filepath.Join(d.path, name))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// WriteFile implements Dir: write then fsync before returning.
func (d *OSDir) WriteFile(name string, data []byte) error {
	f, err := os.OpenFile(filepath.Join(d.path, name), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OpenAppend implements Dir.
func (d *OSDir) OpenAppend(name string) (File, error) {
	return os.OpenFile(filepath.Join(d.path, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Rename implements Dir.
func (d *OSDir) Rename(oldName, newName string) error {
	return os.Rename(filepath.Join(d.path, oldName), filepath.Join(d.path, newName))
}

// Remove implements Dir.
func (d *OSDir) Remove(name string) error {
	err := os.Remove(filepath.Join(d.path, name))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// ---------------------------------------------------------------------------
// MemDir

// memFile is one in-memory file: the live content plus the watermark of
// how much of it was durable as of the last sync (what survives a
// crash). The watermark — rather than a full copy of the synced bytes —
// makes Sync O(1); it is sound because live content only ever grows
// between WriteFile replacements.
type memFile struct {
	live      []byte
	syncedLen int
	// everSynced distinguishes an empty synced file from one never synced:
	// a file that was never made durable disappears entirely on crash.
	everSynced bool
}

// MemDir is an in-memory Dir with explicit crash semantics: Crash reverts
// every file to its last-synced content and deletes files that were never
// synced, modelling a kernel page cache lost on power failure. WriteFile
// and Rename are durable immediately (the Log syncs before renaming, and
// real renames of synced files survive crashes on journaling
// filesystems). All methods are safe for concurrent use.
type MemDir struct {
	mu     sync.Mutex
	files  map[string]*memFile
	faults Faults
}

// Faults are the device failures a MemDir injects until the next
// SetFaults; the zero value injects none.
type Faults struct {
	// Write fails every File.Write with this error, storing nothing.
	Write error
	// Sync fails every File.Sync and WriteFile with this error; nothing
	// becomes durable.
	Sync error
	// Short makes File.Write store the first half of its bytes and report
	// that count with a nil error.
	Short bool
	// NoSpaceAfter, when positive, is how many more bytes File.Write and
	// WriteFile may store; the write that crosses it stores what fits and
	// fails with ENOSPC, as does every write after it.
	NoSpaceAfter int
}

// SetFaults replaces the injected failures.
func (d *MemDir) SetFaults(f Faults) {
	d.mu.Lock()
	d.faults = f
	d.mu.Unlock()
}

// admit applies the space budget to a write of n bytes: it returns how
// many may be stored and ENOSPC when that is fewer than n. d.mu is held.
func (d *MemDir) admit(n int) (int, error) {
	if d.faults.NoSpaceAfter == 0 {
		return n, nil
	}
	if d.faults.NoSpaceAfter < 0 || n >= d.faults.NoSpaceAfter {
		fit := max(d.faults.NoSpaceAfter, 0)
		d.faults.NoSpaceAfter = -1 // full from now on
		return fit, syscall.ENOSPC
	}
	d.faults.NoSpaceAfter -= n
	return n, nil
}

// NewMemDir returns an empty in-memory disk.
func NewMemDir() *MemDir {
	return &MemDir{files: make(map[string]*memFile)}
}

// ReadFile implements Dir.
func (d *MemDir) ReadFile(name string) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), f.live...), true, nil
}

// WriteFile implements Dir (durable immediately).
func (d *MemDir) WriteFile(name string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.faults.Sync != nil {
		return d.faults.Sync
	}
	if _, err := d.admit(len(data)); err != nil {
		return err
	}
	d.files[name] = &memFile{
		live:       append([]byte(nil), data...),
		syncedLen:  len(data),
		everSynced: true,
	}
	return nil
}

// OpenAppend implements Dir.
func (d *MemDir) OpenAppend(name string) (File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		f = &memFile{}
		d.files[name] = f
	}
	return &memAppend{dir: d, name: name}, nil
}

// Rename implements Dir (durable immediately).
func (d *MemDir) Rename(oldName, newName string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[oldName]
	if !ok {
		return os.ErrNotExist
	}
	delete(d.files, oldName)
	d.files[newName] = f
	return nil
}

// Remove implements Dir.
func (d *MemDir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, name)
	return nil
}

// Crash simulates losing power: every file reverts to its last-synced
// content; files never synced disappear.
func (d *MemDir) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for name, f := range d.files {
		if !f.everSynced {
			delete(d.files, name)
			continue
		}
		f.live = append([]byte(nil), f.live[:f.syncedLen]...)
	}
}

// Bytes returns a copy of a file's live content (test helper).
func (d *MemDir) Bytes(name string) []byte {
	b, _, _ := d.ReadFile(name)
	return b
}

// CrashCopy returns a new MemDir holding what Crash would leave of this
// one, which is untouched (test helper).
func (d *MemDir) CrashCopy() *MemDir {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := NewMemDir()
	for name, f := range d.files {
		if f.everSynced {
			c.files[name] = &memFile{live: append([]byte(nil), f.live[:f.syncedLen]...), syncedLen: f.syncedLen, everSynced: true}
		}
	}
	return c
}

// AppendSynced appends raw bytes to a file as if they had been written and
// synced — the corrupt-tail tests use it to plant garbage that survives a
// crash.
func (d *MemDir) AppendSynced(name string, data []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		f = &memFile{}
		d.files[name] = f
	}
	f.live = append(f.live, data...)
	f.syncedLen = len(f.live)
	f.everSynced = true
}

// Files lists the directory's file names, sorted (test helper).
func (d *MemDir) Files() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.files))
	for name := range d.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// memAppend is an append handle into a MemDir file. It resolves the file
// by name on every operation so a Rename during compaction does not
// strand the handle on a stale object.
type memAppend struct {
	dir  *MemDir
	name string
}

func (a *memAppend) Write(p []byte) (int, error) {
	a.dir.mu.Lock()
	defer a.dir.mu.Unlock()
	if err := a.dir.faults.Write; err != nil {
		return 0, err
	}
	if a.dir.faults.Short {
		p = p[:len(p)/2]
	}
	n, err := a.dir.admit(len(p))
	p = p[:n]
	f, ok := a.dir.files[a.name]
	if !ok {
		f = &memFile{}
		a.dir.files[a.name] = f
	}
	f.live = append(f.live, p...)
	return len(p), err
}

func (a *memAppend) Sync() error {
	a.dir.mu.Lock()
	defer a.dir.mu.Unlock()
	if err := a.dir.faults.Sync; err != nil {
		return err
	}
	if f, ok := a.dir.files[a.name]; ok {
		f.syncedLen = len(f.live)
		f.everSynced = true
	}
	return nil
}

func (a *memAppend) Close() error { return nil }
