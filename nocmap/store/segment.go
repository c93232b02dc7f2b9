package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The WAL is a sequence of segment files, wal.000001.jsonl onward. The
// highest-numbered segment is active (open for append); everything
// below it is sealed — immutable, awaiting the compactor. Rotation
// (sealing the active segment and opening the next) is a handful of
// metadata syscalls under fs.mu; folding sealed segments into the
// snapshot is the compactor goroutine's job and never touches the
// append path.
const (
	segmentPrefix = "wal."
	segmentSuffix = ".jsonl"

	snapshotFile    = "snapshot.json"
	snapshotTmpFile = snapshotFile + ".tmp"

	// legacyWALFile is the single-file WAL of a store from before WAL
	// segments; OpenConfig refuses a directory that holds one.
	legacyWALFile = "wal.jsonl"
)

// segmentName formats the on-disk name of segment seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%06d%s", segmentPrefix, seq, segmentSuffix)
}

// parseSegmentName extracts the sequence number from a segment file
// name, or ok=false for any other name (including wal.jsonl).
func parseSegmentName(name string) (uint64, bool) {
	body, ok := strings.CutPrefix(name, segmentPrefix)
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

// listSegments returns the sequence numbers of every segment file in
// dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] < seqs[k] })
	return seqs, nil
}

// replaySegment applies one segment file to state, line by line, and
// returns how many ops it held and the offset of the last whole line's
// end. active marks the segment that was open for appending when the
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
		return 0, 0, fmt.Errorf("store: opening wal segment: %w", err)
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 64<<10) // no line-length cap: ReadBytes grows
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr == io.EOF {
			if len(bytes.TrimSpace(line)) > 0 {
				if !active {
					return ops, good, fmt.Errorf("store: sealed wal segment %s ends mid-line (not the active tail)", filepath.Base(path))
				}
				return ops, good, nil // unterminated tail: torn mid-append
			}
			good += int64(len(line))
			return ops, good, nil
		}
		if rerr != nil {
			return ops, good, fmt.Errorf("store: reading wal segment: %w", rerr)
		}
		advance := int64(len(line))
		if len(bytes.TrimSpace(line)) == 0 {
			good += advance
			continue
		}
		var op walOp
		if uerr := json.Unmarshal(line, &op); uerr != nil {
			if _, peekErr := r.Peek(1); peekErr == io.EOF && active {
				return ops, good, nil // torn final line
			}
			return ops, good, fmt.Errorf("store: corrupt wal line at %s offset %d (not the torn tail): %w", filepath.Base(path), good, uerr)
		}
		if aerr := state.apply(op); aerr != nil {
			if _, peekErr := r.Peek(1); peekErr == io.EOF && active {
				return ops, good, nil
			}
			return ops, good, fmt.Errorf("store: invalid wal op at %s offset %d (not the torn tail): %w", filepath.Base(path), good, aerr)
		}
		ops++
		good += advance
	}
}

// readSnapshot streams snapshot.json into state and returns the
// highest WAL segment the snapshot has folded (its wal_seq field; 0
// for a missing file). The decode is
// token-streamed — one record in memory at a time, never the whole
// multi-GB document in one buffer.
func readSnapshot(path string, state *memState) (walSeq uint64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: reading snapshot: %w", err)
	}
	defer f.Close()

	dec := json.NewDecoder(bufio.NewReaderSize(f, 256<<10))
	if err := expectDelim(dec, '{'); err != nil {
		return 0, fmt.Errorf("store: parsing snapshot: %w", err)
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return 0, fmt.Errorf("store: parsing snapshot: %w", err)
		}
		key, _ := keyTok.(string)
		switch key {
		case "wal_seq":
			var seq uint64
			if err := dec.Decode(&seq); err != nil {
				return 0, fmt.Errorf("store: parsing snapshot wal_seq: %w", err)
			}
			walSeq = seq
		case "jobs":
			err = decodeArray(dec, func() error {
				var rec JobRecord
				if err := dec.Decode(&rec); err != nil {
					return err
				}
				state.putJob(rec)
				return nil
			})
		case "cache":
			err = decodeArray(dec, func() error {
				var entry CacheEntry
				if err := dec.Decode(&entry); err != nil {
					return err
				}
				state.putCache(entry.Key, entry.Result)
				return nil
			})
		case "replicas":
			err = decodeArray(dec, func() error {
				var rec JobRecord
				if err := dec.Decode(&rec); err != nil {
					return err
				}
				state.putReplica(rec)
				return nil
			})
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return 0, fmt.Errorf("store: parsing snapshot %q section: %w", key, err)
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return 0, fmt.Errorf("store: parsing snapshot: %w", err)
	}
	return walSeq, nil
}

// expectDelim consumes one token and checks it is the given delimiter.
func expectDelim(dec *json.Decoder, want rune) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || rune(d) != want {
		return fmt.Errorf("unexpected token %v (want %q)", tok, want)
	}
	return nil
}

// decodeArray consumes a JSON array, calling elem once per element
// with the decoder positioned at it.
func decodeArray(dec *json.Decoder, elem func() error) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("unexpected token %v (want array)", tok)
	}
	for dec.More() {
		if err := elem(); err != nil {
			return err
		}
	}
	return expectDelim(dec, ']')
}

// writeSnapshot streams view to path (created fresh) with walSeq as
// the coverage watermark — the wal_seq field first, then each section
// as a JSON array written record by record, so only one record (plus
// the bufio window) is ever encoded in memory — then fsyncs and closes
// it. throttle, when non-nil, is called once per record: the compactor
// paces the encode with it, and the bench and crash suites stretch a
// compaction over a controlled wall-clock window.
func writeSnapshot(path string, walSeq uint64, view *stateView, throttle func()) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	// bufio.Writer errors are sticky: checking each record's Write (to
	// stop early) and the final Flush covers every write.
	w := bufio.NewWriterSize(f, 256<<10)
	var rec []byte
	section := func(name string, n int, encode func(dst []byte, i int) ([]byte, error)) error {
		fmt.Fprintf(w, `,%q:[`, name)
		for i := 0; i < n; i++ {
			rec = rec[:0]
			if i > 0 {
				rec = append(rec, ',')
			}
			var err error
			if rec, err = encode(append(rec, '\n'), i); err != nil {
				return err
			}
			if _, err := w.Write(rec); err != nil {
				return err
			}
			if throttle != nil {
				throttle()
			}
		}
		w.WriteByte(']')
		return nil
	}
	fmt.Fprintf(w, `{"wal_seq":%d`, walSeq)
	err = section("jobs", len(view.jobs), func(dst []byte, i int) ([]byte, error) {
		return appendJobRecord(dst, view.jobs[i])
	})
	if err == nil {
		err = section("cache", len(view.cache), func(dst []byte, i int) ([]byte, error) {
			return appendCacheEntry(dst, &view.cache[i])
		})
	}
	if err == nil {
		err = section("replicas", len(view.replicas), func(dst []byte, i int) ([]byte, error) {
			return appendJobRecord(dst, view.replicas[i])
		})
	}
	if err == nil {
		w.WriteString("}\n")
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
