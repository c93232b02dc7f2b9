package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// TestStoreCompactionCrash is the exec-level half of the compaction
// crash-safety story (wired into make chaos-smoke): for every publish
// step of a compaction pass — begin (post-rotate), folded, tmp
// (post-tmp-write), renamed (post-rename, pre-segment-delete), deleted
// — it re-execs the test binary as a child that SIGKILLs itself at
// that exact step while the main goroutine keeps appending, then
// asserts the reopened store holds a strict prefix of the append order
// (no holes, nothing folded twice), that recovery is deterministic
// (two reopens load byte-identical state), and that the recovered
// store still accepts appends.
func TestStoreCompactionCrash(t *testing.T) {
	if os.Getenv("STORE_CRASH_STEP") != "" {
		t.Skip("helper mode is driven via TestStoreCompactionCrashHelper")
	}
	if testing.Short() {
		t.Skip("exec-level crash suite skipped in -short")
	}
	for _, step := range []string{"begin", "folded", "tmp", "renamed", "deleted"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestStoreCompactionCrashHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				"STORE_CRASH_STEP="+step,
				"STORE_CRASH_DIR="+dir,
			)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("helper exited cleanly — the SIGKILL at %q never fired:\n%s", step, out)
			}
			ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
			if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("helper died of %v, want SIGKILL:\n%s", err, out)
			}

			fs, err := OpenConfig(dir, FileConfig{})
			if err != nil {
				t.Fatalf("reopen after SIGKILL at %q: %v", step, err)
			}
			first := crashLoadIDs(t, fs)
			firstJSON := loadJSON(t, fs)
			if len(first) < 16 {
				t.Fatalf("recovered only %d jobs — the crash landed before the first compaction trigger", len(first))
			}
			// Each job holds its key's result, whichever line carried it.
			snap, err := fs.Load()
			if err != nil {
				t.Fatal(err)
			}
			for i, j := range snap.Jobs {
				if want := fmt.Sprintf(`{"key":%d,"pad":"0123456789abcdef0123456789abcdef"}`, i%8); string(j.Result) != want {
					t.Fatalf("%s holds %s, want %s", j.ID, j.Result, want)
				}
			}
			// Prefix property: exactly job-00000..job-(n-1), no holes, no
			// duplicates from re-folding an already-compacted segment.
			seen := make(map[int]bool, len(first))
			for _, id := range first {
				var n int
				if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
					t.Fatalf("unexpected job id %q", id)
				}
				if seen[n] {
					t.Fatalf("job %d recovered twice", n)
				}
				seen[n] = true
			}
			for i := 0; i < len(first); i++ {
				if !seen[i] {
					t.Fatalf("recovered set has a hole at %d (%d jobs recovered)", i, len(first))
				}
			}
			// The recovered store keeps working.
			if err := Apply(fs, PutJob(JobRecord{ID: "post-crash", Key: "k", State: StateDone, Seq: 1})); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := Apply(fs, DeleteJob("post-crash")); err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			// Determinism: a second recovery of the same directory loads
			// byte-identical state.
			again, err := OpenConfig(dir, FileConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if secondJSON := loadJSON(t, again); !bytes.Equal(firstJSON, secondJSON) {
				t.Fatalf("recovery is not deterministic at %q:\n first  %.200s\n second %.200s", step, firstJSON, secondJSON)
			}
		})
	}
}

func crashLoadIDs(t *testing.T, fs *FileStore) []string {
	t.Helper()
	snap, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(snap.Jobs))
	for _, j := range snap.Jobs {
		ids = append(ids, j.ID)
	}
	return ids
}

// TestStoreCompactionCrashHelper is the child process: it appends
// distinct jobs as fast as it can with a low compaction trigger and
// SIGKILLs itself from inside the compactor at the step named by
// STORE_CRASH_STEP. It only runs when re-exec'd by
// TestStoreCompactionCrash.
func TestStoreCompactionCrashHelper(t *testing.T) {
	step := os.Getenv("STORE_CRASH_STEP")
	dir := os.Getenv("STORE_CRASH_DIR")
	if step == "" || dir == "" {
		t.Skip("not in helper mode")
	}
	// Distinct jobs never trip the op-count rule (ops == live records),
	// so the byte trigger drives the rotation — a few KB per segment.
	// Jobs share eight keys and each key's result, so most lines name
	// a result the table took from an earlier segment or the snapshot.
	fs, err := OpenConfig(dir, FileConfig{CompactOps: 1 << 30, CompactBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	kills := 1
	if n, err := strconv.Atoi(os.Getenv("STORE_CRASH_PASS")); err == nil && n > 0 {
		kills = n // die on the nth compaction pass
	}
	passes := 0
	fs.compactHook = func(s string) {
		if s == "begin" {
			passes++
		}
		if s == step && passes >= kills {
			syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
			select {} // unreachable: SIGKILL is not catchable
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			t.Fatal("compaction step never reached — the kill did not fire")
		}
		rec := JobRecord{
			ID:    fmt.Sprintf("job-%05d", i),
			Key:   fmt.Sprintf("key-%d", i%8),
			State: StateDone,
			Seq:   uint64(i + 1),
			Result: json.RawMessage(
				fmt.Sprintf(`{"key":%d,"pad":"0123456789abcdef0123456789abcdef"}`, i%8)),
		}
		if err := Apply(fs, PutJob(rec)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}
