package store

import (
	"fmt"
	"os"
	"runtime"
)

// CompactionStats is a point-in-time snapshot of a FileStore's
// compaction machinery — the numbers behind the server's
// compactions / compact_running / segments stats.
type CompactionStats struct {
	// Compactions counts snapshots the compactor has published
	// (tmp-write + fsync + atomic rename) since OpenConfig.
	Compactions uint64 `json:"compactions"`
	// Running reports whether a compaction is in flight right now.
	Running bool `json:"running"`
	// Segments is the number of WAL segment files on disk: the active
	// one plus every sealed segment the compactor has not folded and
	// deleted yet.
	Segments int `json:"segments"`
	// PendingOps and PendingBytes measure the WAL since the last
	// published snapshot (sealed + active segments) — the volume the
	// next compaction will fold and the replay cost a reboot would pay.
	PendingOps   int   `json:"pending_ops"`
	PendingBytes int64 `json:"pending_bytes"`
	// Errors counts compaction attempts that failed before publishing
	// (the WAL keeps every op, so a failed compaction loses nothing;
	// the next trigger retries). LastError is the most recent failure,
	// "" when the last attempt succeeded.
	Errors    uint64 `json:"errors"`
	LastError string `json:"last_error,omitempty"`
}

// CompactionStats returns the compaction counters. The store stays
// fully usable while a compaction runs; Running flips back to false
// once the snapshot is published and the folded segments are deleted.
func (fs *FileStore) CompactionStats() CompactionStats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return CompactionStats{
		Compactions:  fs.compactions,
		Running:      fs.compacting,
		Segments:     fs.segments,
		PendingOps:   fs.sealedOps + fs.activeOps,
		PendingBytes: fs.sealedSize + fs.activeSize,
		Errors:       fs.compactErrs,
		LastError:    fs.lastCompactErr,
	}
}

// compactor is the dedicated goroutine that folds sealed WAL segments
// into the snapshot, strictly off the append path: appends and
// ApplyOps batches rotate to a fresh segment (a couple of metadata
// syscalls under fs.mu) and never wait on snapshot IO. One kick = one
// pass; a pass that leaves the trigger still satisfied (the active
// segment grew past it while the pass ran) rotates and re-kicks
// itself.
func (fs *FileStore) compactor() {
	defer close(fs.compactorDone)
	for {
		select {
		case <-fs.quit:
			return
		case <-fs.kick:
		}
		fs.runCompaction()
	}
}

// kickCompactorLocked marks a compaction as claimed and wakes the
// compactor. Callers hold fs.mu; the claim (fs.compacting) is what
// keeps the append path from rotating once per append while the
// trigger stays satisfied.
func (fs *FileStore) kickCompactorLocked() {
	fs.compacting = true
	select {
	case fs.kick <- struct{}{}:
	default: // a kick is already pending
	}
}

// runCompaction performs one full compaction pass. It takes the state
// the latest rotation sealed — put ops sharing the records already in
// memory, so nothing is read back from disk — streams it to the
// snapshot tmp file, atomically publishes it under the number of the
// last segment it covers and deletes those segments and the snapshot
// it replaces. fs.mu is taken only twice: to pick up the sealed state
// at the start and to settle the counters at the end.
//
// Failure is containment, not corruption: the WAL still holds every op
// until the rename lands, so any error before the publish simply leaves
// the segments (and the sealed state) in place for the next trigger to
// retry. After a successful publish the counters are settled
// unconditionally — leftover files (a failed delete, a crash) are
// covered by the new snapshot's name and removed on the next
// OpenConfig (segments also on the next pass), never re-folded and
// never re-counted (the post-rename cleanup bug the single-file design
// had).
func (fs *FileStore) runCompaction() {
	fs.mu.Lock()
	sealed := fs.sealed
	if fs.closed || sealed == nil {
		// Closed, or nothing sealed: a kick raced a pass that already
		// published everything.
		fs.compacting = false
		fs.compactCond.Broadcast()
		fs.mu.Unlock()
		return
	}
	from := fs.snapSeq + 1
	pace := fs.compactThrottle
	hook := fs.compactHook
	fs.mu.Unlock()

	if pace == nil {
		// The snapshot encode is CPU-dense; on a small-GOMAXPROCS host an
		// unpaced pass would monopolize a core and the append path — off
		// the writer path by design — would stall anyway, just on the
		// scheduler instead of the lock. Yield between small batches of
		// records so serving goroutines interleave.
		n := 0
		pace = func() {
			if n++; n%32 == 0 {
				runtime.Gosched()
			}
		}
	}

	fail := func(err error) {
		fs.mu.Lock()
		fs.compactErrs++
		fs.lastCompactErr = err.Error()
		fs.compacting = false
		fs.compactCond.Broadcast()
		fs.mu.Unlock()
	}
	finish := func(deleted int, deleteErr error) {
		fs.mu.Lock()
		fs.snapSeq = sealed.seq
		if fs.sealed == sealed {
			fs.sealed = nil // a rotation during the pass left a newer one
		}
		fs.compactions++
		fs.segments -= deleted
		// Subtract exactly what this pass folded: segments sealed WHILE
		// the pass ran (seq > sealed.seq) stay counted for the next one.
		if fs.sealedOps -= sealed.ops; fs.sealedOps < 0 {
			fs.sealedOps = 0
		}
		if fs.sealedSize -= sealed.size; fs.sealedSize < 0 {
			fs.sealedSize = 0
		}
		if deleteErr != nil {
			// The snapshot is published; the stale files are covered by
			// its name and will be removed on the next OpenConfig.
			// Record the failure, but the compaction succeeded — the
			// counters settle unconditionally, so a cleanup failure
			// can neither re-trigger a full compaction on every
			// subsequent append nor re-fold already-folded ops on
			// reboot (the single-file design's post-rename bug).
			fs.compactErrs++
			fs.lastCompactErr = deleteErr.Error()
		} else {
			fs.lastCompactErr = ""
		}
		fs.compacting = false
		fs.compactCond.Broadcast()
		// The active segment may have outgrown the trigger while this
		// pass ran; rotate and re-kick before releasing the lock.
		fs.maybeCompactLocked() //nocmapvet:allow blockingunderlock segment rotation is metadata-only WAL-path IO under fs.mu by design; docs/STATIC_ANALYSIS.md#baselines
		fs.mu.Unlock()
	}

	if hook != nil {
		// The sealed state is the fold, so "folded" follows at once; the
		// crash suite still kills the pass at both steps.
		hook("begin")
		hook("folded")
	}

	// Publish: stream to the tmp file, fsync, rename, fsync the dir.
	tmp := fs.path(snapshotTmpFile)
	if err := writeSnapshot(tmp, sealed.view, pace); err != nil {
		os.Remove(tmp)
		fail(err)
		return
	}
	if hook != nil {
		hook("tmp")
	}
	if err := os.Rename(tmp, fs.path(snapshotName(sealed.seq))); err != nil {
		os.Remove(tmp)
		fail(fmt.Errorf("store: publishing snapshot: %w", err))
		return
	}
	if err := syncDir(fs.dir); err != nil {
		// The rename may not be durable yet, but both the old and the
		// new snapshot state are recoverable (the WAL segments are
		// still intact); treat as published and surface the error.
		finish(0, fmt.Errorf("store: syncing dir after snapshot publish: %w", err))
		return
	}
	if hook != nil {
		hook("renamed")
	}

	// Retire: the folded segments and the old snapshot are dead weight
	// now — OpenConfig would skip them by the new snapshot's name even
	// if they survived.
	deleted := 0
	var deleteErr error
	remove := func(name string) bool {
		if err := os.Remove(fs.path(name)); err != nil {
			deleteErr = fmt.Errorf("store: deleting folded %s: %w", name, err)
			return false
		}
		return true
	}
	for seq := from; seq <= sealed.seq; seq++ {
		if remove(segmentName(seq)) {
			deleted++
		}
	}
	if from > 1 {
		remove(snapshotName(from - 1))
	}
	if err := syncDir(fs.dir); err != nil && deleteErr == nil {
		deleteErr = fmt.Errorf("store: syncing dir after segment delete: %w", err)
	}
	if hook != nil {
		hook("deleted")
	}
	finish(deleted, deleteErr)
}

// waitCompactionsLocked blocks until no compaction is in flight.
// Callers hold fs.mu.
func (fs *FileStore) waitCompactionsLocked() {
	for fs.compacting {
		fs.compactCond.Wait()
	}
}
