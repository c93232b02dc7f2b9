package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FileStore is the durable JobStore: an append-only JSON-lines WAL,
// split into segment files (wal.000001.jsonl, ...), folded into a
// snapshot by a dedicated compactor goroutine. A snapshot is a sealed
// segment of put ops named for the highest segment it covers
// (snap.000042.jsonl covers wal.000001 to wal.000042), so one reader
// replays both. Every append is fsynced before the call returns, so a
// SIGKILL at any instant loses at most the operation in flight; a torn
// final line in the active segment (the signature of a crash
// mid-append) is detected and truncated away on the next OpenConfig.
//
// Compaction is off the writer path by construction: hitting a trigger
// (op count or WAL bytes, see FileConfig) rotates to a fresh active
// segment — a couple of metadata syscalls plus an ordered list of put
// ops sharing the in-memory records, taken under the store lock — and
// the compactor streams that list, the state the store had applied when it sealed
// the segment, into a new snapshot without ever blocking an append or
// reading the WAL back. A snapshot that takes seconds to write
// therefore costs concurrent appends nothing but disk bandwidth.
type FileStore struct {
	dir string

	mu         sync.Mutex
	wal        *os.File // active segment, open for append
	walSeq     uint64   // active segment's sequence number
	activeOps  int      // whole-line appends in the active segment
	activeSize int64    // end offset of the last fully appended line
	closed     bool
	roCause    string // non-empty: the store refused further writes (see readOnlyLocked)
	state      memState

	compactOps   int   // op-count compaction trigger floor
	compactBytes int64 // byte-size compaction trigger

	// Compactor coordination. sealedOps/sealedSize cover segments
	// sealed by rotation but not yet folded into the snapshot; snapSeq
	// is the highest segment the published snapshot covers; sealed is
	// the applied state as of the latest rotation — what the next
	// snapshot publishes — and nil once a snapshot covers it.
	sealedOps      int
	sealedSize     int64
	sealed         *sealedState
	segments       int // segment files on disk (sealed + active)
	snapSeq        uint64
	compacting     bool
	compactCond    *sync.Cond
	kick           chan struct{}
	quit           chan struct{}
	compactorDone  chan struct{}
	compactions    uint64
	compactErrs    uint64
	lastCompactErr string

	// Test hooks, nil in production: applyFault poisons state.apply
	// after the fsync (the mid-batch failure contract), compactHook
	// observes the compactor's publish steps (the crash suite SIGKILLs
	// inside it), compactThrottle stretches the snapshot encode (the
	// latency bench forces a multi-second compaction with it).
	applyFault      func(Op) error
	compactHook     func(step string)
	compactThrottle func()

	line []byte // WAL encode buffer, reused under mu
}

// sealedState is what a rotation hands the compactor: the applied
// state as of the seal, which is exactly the prior snapshot plus every
// segment up to seq, and the sealed WAL volume (ops, size) a snapshot
// of it retires.
type sealedState struct {
	seq  uint64
	ops  int
	size int64
	view []Op
}

const (
	// defaultCompactOps is the minimum number of WAL appends before a
	// compaction is considered; beyond it, the WAL is folded into the
	// snapshot whenever it holds more than 4x the live record count.
	defaultCompactOps = 1024

	// defaultCompactBytes triggers a compaction on WAL volume alone: a
	// handful of huge terminal-result records can grow the log to GBs
	// without ever reaching the op-count floor, and the byte trigger
	// bounds the replay a reboot would pay.
	defaultCompactBytes = 256 << 20
)

// FileConfig tunes a FileStore. The zero value picks the defaults
// noted on each field.
type FileConfig struct {
	// CompactOps is the op-count compaction floor: once at least this
	// many WAL appends have accumulated since the last snapshot AND the
	// log holds more than 4x the live record count, the store rotates
	// segments and compacts. Default 1024.
	CompactOps int
	// CompactBytes is the byte-size compaction trigger: once the WAL
	// (sealed + active segments) exceeds it, the store compacts
	// regardless of op count — a few multi-MB result records must not
	// grow the log without bound. Default 256 MiB.
	CompactBytes int64
}

// OpenConfig opens (or creates) a file store rooted at dir. It replays
// the newest snapshot and the WAL segments above it — deleting older
// snapshots and the segments the snapshot already covers, dropping a
// torn trailing line left by a crash mid-append, and removing a stale
// snapshot tmp file left by a compaction the crash interrupted — then
// leaves the active segment open for appending and starts the
// compactor goroutine. It refuses a directory holding a wal.jsonl or a
// snapshot.json, the files of older store formats, rather than start
// empty beside them.
func OpenConfig(dir string, cfg FileConfig) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	ls, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	fs := &FileStore{
		dir:           dir,
		compactOps:    cfg.CompactOps,
		compactBytes:  cfg.CompactBytes,
		kick:          make(chan struct{}, 1),
		quit:          make(chan struct{}),
		compactorDone: make(chan struct{}),
	}
	if fs.compactOps <= 0 {
		fs.compactOps = defaultCompactOps
	}
	if fs.compactBytes <= 0 {
		fs.compactBytes = defaultCompactBytes
	}
	fs.compactCond = sync.NewCond(&fs.mu)

	// A snapshot tmp file is a compaction that never published — a
	// crash or error between the tmp write and the rename. It must not
	// survive into this incarnation: the next compaction recreates it
	// from scratch, and nothing else may ever read it.
	if ls.tmp {
		if err := os.Remove(fs.path(snapshotTmpFile)); err != nil {
			return nil, fmt.Errorf("store: removing stale snapshot tmp: %w", err)
		}
	}

	// Older snapshots and the segments the newest one covers are
	// leftovers of a crash (or failed delete) after the rename landed:
	// their ops are folded in, so replaying them would be redundant at
	// best. Delete, don't read.
	var snapSeq uint64
	var stale []string
	if n := len(ls.snaps); n > 0 {
		snapSeq = ls.snaps[n-1]
		if _, _, err := replaySegment(fs.path(snapshotName(snapSeq)), &fs.state, false); err != nil {
			return nil, err
		}
		for _, seq := range ls.snaps[:n-1] {
			stale = append(stale, snapshotName(seq))
		}
	}
	fs.snapSeq = snapSeq
	live := ls.segs[:0]
	for _, seq := range ls.segs {
		if seq <= snapSeq {
			stale = append(stale, segmentName(seq))
			continue
		}
		live = append(live, seq)
	}
	for _, name := range stale {
		if err := os.Remove(fs.path(name)); err != nil {
			return nil, fmt.Errorf("store: removing folded %s: %w", name, err)
		}
	}
	if len(stale) > 0 {
		if err := syncDir(dir); err != nil {
			return nil, fmt.Errorf("store: syncing dir after stale segment cleanup: %w", err)
		}
	}
	// The surviving segments must be exactly snapSeq+1..snapSeq+n: a
	// hole means a segment of fsynced ops vanished — fail loudly rather
	// than replay around it.
	for i, seq := range live {
		if want := snapSeq + 1 + uint64(i); seq != want {
			return nil, fmt.Errorf("store: wal segment %s missing (found %s)", segmentName(want), segmentName(seq))
		}
	}

	for i, seq := range live {
		active := i == len(live)-1
		path := fs.path(segmentName(seq))
		ops, good, err := replaySegment(path, &fs.state, active)
		if err != nil {
			return nil, err
		}
		if !active {
			fs.sealedOps += ops
			fs.sealedSize += good
			continue
		}
		if info, serr := os.Stat(path); serr == nil && good < info.Size() {
			// Crash mid-append: drop the torn tail so the next append
			// starts on a clean line boundary.
			if err := os.Truncate(path, good); err != nil {
				return nil, fmt.Errorf("store: truncating torn wal tail: %w", err)
			}
		}
		fs.activeOps = ops
		fs.activeSize = good
	}

	if len(live) == 0 {
		fs.walSeq = snapSeq + 1
	} else {
		fs.walSeq = live[len(live)-1]
	}
	wal, err := os.OpenFile(fs.path(segmentName(fs.walSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal segment: %w", err)
	}
	if len(live) == 0 {
		// The fresh active segment must survive a crash before its
		// first append, or the next OpenConfig would see a hole.
		if err := syncDir(dir); err != nil {
			wal.Close()
			return nil, fmt.Errorf("store: syncing dir after segment create: %w", err)
		}
	}
	fs.wal = wal
	fs.segments = len(live)
	if fs.segments == 0 {
		fs.segments = 1
	}

	if fs.segments > 1 {
		// Sealed segments survived the restart (a crash beat the
		// compactor). Seal the active one too: the replayed state then
		// covers exactly the sealed range, and the compactor folds it
		// the same way it folds any rotation. No lock is needed: fs is
		// not shared yet and the compactor has not started.
		if err := fs.rotateLocked(); err != nil {
			fs.wal.Close()
			return nil, err
		}
		fs.kickCompactorLocked()
	}
	go fs.compactor()
	return fs, nil
}

func (fs *FileStore) path(name string) string { return filepath.Join(fs.dir, name) }

// writableLocked reports whether the store accepts writes. Callers
// hold fs.mu.
func (fs *FileStore) writableLocked() error {
	if fs.closed {
		return fmt.Errorf("store: closed")
	}
	if fs.roCause != "" {
		return fmt.Errorf("store: read-only: %s", fs.roCause)
	}
	return nil
}

// applyLocked folds one fsynced op into the in-memory state. A failure
// here is the one divergence the store cannot absorb: the op is durable
// in the WAL but not in memory, so writes stop loudly (read-only)
// instead of letting the two images drift apart silently. Callers hold
// fs.mu and have already counted the op into activeOps/activeSize.
func (fs *FileStore) applyLocked(op Op) error {
	err := func() error {
		if fs.applyFault != nil {
			if ferr := fs.applyFault(op); ferr != nil {
				return ferr
			}
		}
		return fs.state.apply(op)
	}()
	if err != nil {
		fs.roCause = fmt.Sprintf("fsynced wal op failed to apply: %v", err)
		return fmt.Errorf("store: %s", fs.roCause)
	}
	return nil
}

// ApplyOps implements JobStore and is the store's one write path: every
// op in the batch is marshaled, written and fsynced as ONE WAL append —
// the group commit that lets the server's flusher amortize fsync
// latency over many transitions. Order inside the batch is the WAL
// order. On a write or sync error the file is rolled back to the
// pre-batch line boundary, so a failed batch leaves no partial ops
// behind and may be retried op by op; once the batch IS fsynced, it
// applies whole — an op that then fails to apply flips the store
// read-only (see applyLocked) instead of leaving the WAL silently ahead
// of the in-memory state. Rotation is considered once per batch, not
// once per op, which keeps it off the per-transition hot path.
func (fs *FileStore) ApplyOps(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.writableLocked(); err != nil {
		return err
	}
	buf := fs.line[:0]
	for i := range ops {
		if err := ops[i].validate(); err != nil {
			return err // never fsync an op replay would choke on
		}
		var err error
		if buf, err = appendWALOp(buf, &ops[i], false); err != nil {
			return fmt.Errorf("store: encoding wal op: %w", err)
		}
		buf = append(buf, '\n')
	}
	fs.keepLine(buf)
	if _, err := fs.wal.Write(buf); err != nil { //nocmapvet:allow blockingunderlock fs.mu is the WAL append serialization point by design; docs/STATIC_ANALYSIS.md#baselines
		// A short write (ENOSPC, I/O error) may have left a line
		// fragment; roll the file back to the last whole line so a later
		// successful append cannot glue onto the fragment and turn a
		// transient failure into permanent mid-log corruption.
		fs.rollbackLocked() //nocmapvet:allow blockingunderlock fs.mu is the WAL append serialization point by design; docs/STATIC_ANALYSIS.md#baselines
		return fmt.Errorf("store: appending wal batch: %w", err)
	}
	if err := fs.wal.Sync(); err != nil { //nocmapvet:allow blockingunderlock fs.mu is the WAL append serialization point by design; docs/STATIC_ANALYSIS.md#baselines
		fs.rollbackLocked() //nocmapvet:allow blockingunderlock fs.mu is the WAL append serialization point by design; docs/STATIC_ANALYSIS.md#baselines
		return fmt.Errorf("store: syncing wal batch: %w", err)
	}
	fs.activeSize += int64(len(buf))
	fs.activeOps += len(ops)
	var firstErr error
	for _, op := range ops {
		if err := fs.applyLocked(op); err != nil && firstErr == nil {
			// Keep applying the rest: the WAL holds the whole batch, so
			// memory should carry everything it can before the store
			// goes read-only on the divergence.
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	fs.maybeCompactLocked() //nocmapvet:allow blockingunderlock segment rotation is metadata-only WAL-path IO under fs.mu by design; docs/STATIC_ANALYSIS.md#baselines
	return nil
}

// keepLine holds on to an encode buffer for the next append, unless a
// huge batch grew it past what is worth keeping. Callers hold fs.mu.
func (fs *FileStore) keepLine(b []byte) {
	if cap(b) <= 1<<20 {
		fs.line = b
	}
}

// rollbackLocked restores the active segment to its last known line
// boundary after a failed append. If even the truncate fails, the
// store refuses further writes — better loudly read-only than silently
// corrupting.
func (fs *FileStore) rollbackLocked() {
	if err := fs.wal.Truncate(fs.activeSize); err != nil {
		fs.roCause = fmt.Sprintf("wal rollback failed: %v", err)
	}
}

// maybeCompactLocked checks the compaction triggers and, when one
// fires, rotates to a fresh active segment and wakes the compactor.
// The rotation is the append path's entire share of a compaction:
// open-next-segment + fsync-dir, a couple of metadata syscalls —
// snapshot IO happens on the compactor goroutine, never here. Callers
// hold fs.mu.
func (fs *FileStore) maybeCompactLocked() {
	if fs.closed || fs.roCause != "" {
		return
	}
	live := fs.state.len()
	totalOps := fs.sealedOps + fs.activeOps
	totalBytes := fs.sealedSize + fs.activeSize
	opsTrigger := totalOps >= fs.compactOps && totalOps > 4*live
	if !opsTrigger && totalBytes < fs.compactBytes {
		return
	}
	// Rotate only when the active segment itself is worth sealing:
	// either it alone crossed a trigger, or nothing is sealed yet. When
	// a sealed backlog already exists (an in-flight pass, or a failed
	// one awaiting retry), appends must not rotate once per op — a
	// multi-second compaction bounds the active segment by re-rotating
	// only when that segment re-crosses a trigger on its own.
	activeBig := fs.activeOps >= fs.compactOps || fs.activeSize >= fs.compactBytes
	if fs.activeOps > 0 && (activeBig || (fs.sealedOps == 0 && fs.sealedSize == 0)) {
		if err := fs.rotateLocked(); err != nil {
			// The WAL keeps appending to the current segment; the trigger
			// stays satisfied and retries on the next append.
			fs.compactErrs++
			fs.lastCompactErr = err.Error()
			return
		}
	}
	if !fs.compacting && fs.walSeq > fs.snapSeq+1 {
		fs.kickCompactorLocked()
	}
}

// rotateLocked seals the active segment and opens the next one. The
// new segment is created and the directory fsynced BEFORE the switch,
// so an append acknowledged into it can never land in a file a crash
// would un-create. The seal hands the compactor the state applied so
// far — every op in the sealed range, since a store that failed to
// apply an fsynced op is read-only and never rotates again. Callers
// hold fs.mu.
func (fs *FileStore) rotateLocked() error {
	next := fs.walSeq + 1
	f, err := os.OpenFile(fs.path(segmentName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating wal segment: %w", err)
	}
	if err := syncDir(fs.dir); err != nil {
		f.Close()
		os.Remove(fs.path(segmentName(next)))
		return fmt.Errorf("store: syncing dir after segment create: %w", err)
	}
	old := fs.wal
	fs.wal = f
	fs.walSeq = next
	fs.sealedOps += fs.activeOps
	fs.sealedSize += fs.activeSize
	fs.activeOps = 0
	fs.activeSize = 0
	fs.segments++
	fs.sealed = &sealedState{seq: next - 1, ops: fs.sealedOps, size: fs.sealedSize, view: fs.state.view()}
	// Every line in the sealed segment is already fsynced whole; the
	// close releases the descriptor, nothing more.
	old.Close()
	return nil
}

// Load implements JobStore.
func (fs *FileStore) Load() (*Snapshot, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.state.snapshot(), nil
}

// Close implements JobStore: further writes fail. An in-flight
// compaction is drained first (its snapshot publish is already
// crash-safe, but a clean close leaves no work half-done), then the
// compactor goroutine is stopped and the active segment released.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return nil
	}
	fs.closed = true
	fs.waitCompactionsLocked()
	fs.mu.Unlock()
	close(fs.quit)
	<-fs.compactorDone
	return fs.wal.Close()
}
