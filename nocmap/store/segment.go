package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The WAL is a sequence of segment files, wal.000001.jsonl onward. The
// highest-numbered segment is active (open for append); everything
// below it is sealed — immutable, awaiting the compactor. Rotation
// (sealing the active segment and opening the next) is a handful of
// metadata syscalls under fs.mu; folding sealed segments into a
// snapshot is the compactor goroutine's job and never touches the
// append path. A snapshot, snap.000042.jsonl, is one more sealed
// segment: the put ops that rebuild the state as of segment 42, which
// its name says it covers.
const (
	segmentPrefix  = "wal."
	snapshotPrefix = "snap."
	segmentSuffix  = ".jsonl"

	snapshotTmpFile = "snap.tmp"

	// The files of older store formats, which OpenConfig refuses:
	// legacyWALFile is the single-file WAL from before WAL segments,
	// legacySnapshotFile the JSON-object snapshot from before
	// snapshots were WAL lines.
	legacyWALFile      = "wal.jsonl"
	legacySnapshotFile = "snapshot.json"
)

// segmentName formats the on-disk name of segment seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%06d%s", segmentPrefix, seq, segmentSuffix)
}

// snapshotName formats the on-disk name of the snapshot covering every
// segment up to seq.
func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%06d%s", snapshotPrefix, seq, segmentSuffix)
}

// parseSeqName extracts the sequence number from a segment or snapshot
// file name with the given prefix, or ok=false for any other name
// (including wal.jsonl).
func parseSeqName(name, prefix string) (uint64, bool) {
	body, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	body, ok = strings.CutSuffix(body, segmentSuffix)
	if !ok || body == "" {
		return 0, false
	}
	for _, c := range body {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	seq, err := strconv.ParseUint(body, 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// dirListing is what one ReadDir of a store directory tells OpenConfig.
type dirListing struct {
	segs, snaps []uint64 // ascending
	tmp         bool     // a snapshot tmp file is present
}

// listDir lists the store files in dir. It refuses a directory holding
// a file of an older store format rather than start empty beside it.
func listDir(dir string) (dirListing, error) {
	var ls dirListing
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ls, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseSeqName(name, segmentPrefix); ok {
			ls.segs = append(ls.segs, seq)
		} else if seq, ok := parseSeqName(name, snapshotPrefix); ok {
			ls.snaps = append(ls.snaps, seq)
		} else if name == snapshotTmpFile {
			ls.tmp = true
		} else if name == legacyWALFile || name == legacySnapshotFile {
			return ls, fmt.Errorf("store: %s holds %s, a file of an older store format, which this version cannot read", dir, name)
		}
	}
	// Names past six digits do not sort by number.
	slices.Sort(ls.segs)
	slices.Sort(ls.snaps)
	return ls, nil
}

// replaySegment applies one segment or snapshot file to state, line by
// line, and returns how many ops it held and the offset of the last
// whole line's end. active marks the segment that was open for appending when the
// process last stopped: only there may the final line be torn (the
// signature of a crash mid-append) — it is skipped and the caller
// truncates it away. Anywhere else, an undecodable line is real
// corruption and fails loudly instead of silently discarding the
// records behind it.
func replaySegment(path string, state *memState, active bool) (ops int, good int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: opening %s: %w", filepath.Base(path), err)
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 64<<10) // no line-length cap: ReadBytes grows
	for {
		text, rerr := r.ReadBytes('\n')
		if rerr == io.EOF {
			if len(bytes.TrimSpace(text)) > 0 {
				if !active {
					return ops, good, fmt.Errorf("store: %s ends mid-line (not the active wal tail)", filepath.Base(path))
				}
				return ops, good, nil // unterminated tail: torn mid-append
			}
			good += int64(len(text))
			return ops, good, nil
		}
		if rerr != nil {
			return ops, good, fmt.Errorf("store: reading %s: %w", filepath.Base(path), rerr)
		}
		advance := int64(len(text))
		if len(bytes.TrimSpace(text)) == 0 {
			good += advance
			continue
		}
		var l line
		if uerr := json.Unmarshal(text, &l); uerr != nil {
			if _, peekErr := r.Peek(1); peekErr == io.EOF && active {
				return ops, good, nil // torn final line
			}
			return ops, good, fmt.Errorf("store: corrupt wal line at %s offset %d (not the torn tail): %w", filepath.Base(path), good, uerr)
		}
		if aerr := state.apply(l); aerr != nil {
			// A whole line naming a result the table lacks is no torn
			// write, wherever it is: never load a record without its
			// result.
			if _, peekErr := r.Peek(1); peekErr == io.EOF && active && !errors.Is(aerr, errUnknownResult) {
				return ops, good, nil
			}
			return ops, good, fmt.Errorf("store: invalid wal op at %s offset %d (not the torn tail): %w", filepath.Base(path), good, aerr)
		}
		ops++
		good += advance
	}
}

// writeSnapshot writes lines to path (created fresh), one in memory at
// a time, then fsyncs and closes it. The lines come out of a memState,
// so their raw fields are trusted (see recordEncoder). throttle, when
// non-nil, is called once per line: the compactor paces the encode
// with it, and the bench and crash suites stretch a compaction over a
// controlled wall-clock window.
func writeSnapshot(path string, lines []line, throttle func()) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	// bufio.Writer errors are sticky: checking each line's Write (to
	// stop early) and the final Flush covers every write.
	w := bufio.NewWriterSize(f, 256<<10)
	var buf []byte
	for i := range lines {
		if buf, err = appendWALOp(buf[:0], &lines[i], true); err != nil {
			break
		}
		buf = append(buf, '\n')
		if _, err = w.Write(buf); err != nil {
			break
		}
		if throttle != nil {
			throttle()
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, persisting renames, creates and deletes
// that happened inside it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
