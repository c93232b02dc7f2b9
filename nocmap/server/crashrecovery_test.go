package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"repro/nocmap"
	"repro/nocmap/server"
)

// TestCrashRecoveryE2E is the durability acceptance test, end to end
// against the real binary: boot nocmapd on a file store, finish some
// jobs, SIGKILL the process while a solve is mid-flight with more work
// queued behind it, reboot over the same store and assert
//
//   - finished results serve byte-identical to the pre-crash responses,
//   - the interrupted and queued jobs are re-run to completion under
//     their original IDs,
//   - /v1/stats exposes the recovered/restored counters.
//
// The store has one write path, group commit (one fsync per batch the
// flusher drains); the subtest is named after it.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real nocmapd processes")
	}
	workdir := t.TempDir()
	bin := buildNocmapd(t, workdir)
	t.Run("group", func(t *testing.T) {
		crashRecoveryE2E(t, bin, workdir)
	})
}

func crashRecoveryE2E(t *testing.T, bin, workdir string) {
	args := []string{"-addr", "127.0.0.1:0", "-store", filepath.Join(workdir, "store"),
		"-pool", "1", "-queue", "32"}

	cmd, base := startNocmapd(t, bin, args, filepath.Join(workdir, "boot1.log"))

	// Two quick jobs reach terminal state and the result cache.
	quick := make(map[string]json.RawMessage) // id -> pre-crash result
	for i := 0; i < 2; i++ {
		st := solveSyncE2E(t, base, quickBody(t, i))
		if st.State != server.StateDone || len(st.Result) == 0 {
			t.Fatalf("quick job %d finished %q without a result", i, st.State)
		}
		quick[st.ID] = st.Result
	}

	// One deliberately slow solve (~1.5s of PBB expansion) plus two
	// quick jobs queued behind it on the single worker.
	slowID := submitE2E(t, base, slowBody(t))
	var queuedIDs []string
	for i := 2; i < 4; i++ {
		queuedIDs = append(queuedIDs, submitE2E(t, base, quickBody(t, i)))
	}

	// SIGKILL strictly mid-solve: wait for "running", let the async
	// write-behind window drain (plain durability promises crash safety
	// only for settled writes — the slow solve keeps the kill mid-flight
	// while the disk catches up), then pull the plug.
	waitRemoteState(t, base, slowID, server.StateRunning, 10*time.Second)
	waitFor(t, "the write-behind window to settle before the kill", func() bool {
		var stats server.Stats
		resp, err := http.Get(base + "/v1/stats")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			return false
		}
		return stats.StorePending == 0
	})
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Reboot over the same store.
	cmd2, base2 := startNocmapd(t, bin, args, filepath.Join(workdir, "boot2.log"))
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		cmd2.Wait()
	}()

	// Terminal results survive byte-identical.
	for id, want := range quick {
		st := jobStatusE2E(t, base2, id)
		if st.State != server.StateDone {
			t.Fatalf("restored job %s is %q", id, st.State)
		}
		if !bytes.Equal(st.Result, want) {
			t.Fatalf("job %s result drifted across the crash:\npre:  %s\npost: %s", id, want, st.Result)
		}
	}

	// The stats expose the recovery.
	var stats server.Stats
	resp, err := http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Recovered != 3 {
		t.Fatalf("stats.Recovered = %d, want 3 (1 running + 2 queued at the kill)", stats.Recovered)
	}
	if stats.Restored != 2 {
		t.Fatalf("stats.Restored = %d, want 2", stats.Restored)
	}

	// The interrupted and queued work re-runs to completion under its
	// original IDs.
	for _, id := range append([]string{slowID}, queuedIDs...) {
		st := waitRemoteState(t, base2, id, server.StateDone, 60*time.Second)
		if len(st.Result) == 0 {
			t.Fatalf("re-run job %s finished without a result", id)
		}
	}
}

// TestStoreQueueFlagE2E pins that nocmapd's -store-queue flag is the
// bound of the store write-behind window: with room for one pending op
// and every fsync 300ms slow, concurrent submissions behind the first
// are shed with the store's 429, and submissions succeed again once the
// disk drains.
func TestStoreQueueFlagE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real nocmapd process")
	}
	workdir := t.TempDir()
	bin := buildNocmapd(t, workdir)
	args := []string{"-addr", "127.0.0.1:0", "-store", filepath.Join(workdir, "store"),
		"-store-queue", "1", "-store-fault", "latency=300ms", "-pool", "1", "-queue", "32"}
	cmd, base := startNocmapd(t, bin, args, filepath.Join(workdir, "nocmapd.log"))
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()

	type answer struct {
		status int
		body   []byte
	}
	const n = 4
	answers := make(chan answer, n)
	for i := 0; i < n; i++ {
		body := quickBody(t, i)
		go func() {
			resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				answers <- answer{status: -1, body: []byte(err.Error())}
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			answers <- answer{status: resp.StatusCode, body: buf.Bytes()}
		}()
	}
	shed := 0
	for i := 0; i < n; i++ {
		a := <-answers
		if a.status == http.StatusAccepted {
			continue
		}
		var envelope struct {
			Error server.ErrorPayload `json:"error"`
		}
		if a.status != http.StatusTooManyRequests || json.Unmarshal(a.body, &envelope) != nil ||
			envelope.Error.Code != server.CodeQueueFull ||
			!regexp.MustCompile(`^store write-behind full \(\d+ ops pending\)$`).MatchString(envelope.Error.Message) {
			t.Fatalf("submission answered %d %s, want 202 or the store write-behind 429", a.status, a.body)
		}
		shed++
	}
	if shed == 0 {
		t.Fatalf("no submission of %d was shed with -store-queue 1 behind a 300ms fsync", n)
	}
	waitFor(t, "a submission to be admitted once the disk drains", func() bool {
		resp, _ := post(t, base+"/v1/jobs", quickBody(t, n))
		return resp.StatusCode == http.StatusAccepted
	})
}

// buildNocmapd builds the nocmapd binary into dir.
func buildNocmapd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "nocmapd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/nocmapd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building nocmapd: %v\n%s", err, out)
	}
	return bin
}

// startNocmapd boots the binary, tees its log to path and waits for the
// listen address.
func startNocmapd(t *testing.T, bin string, args []string, logPath string) (*exec.Cmd, string) {
	t.Helper()
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		logf.Close()
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	addrRe := regexp.MustCompile(`listening on (http://[0-9.:]+)`)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		data, _ := os.ReadFile(logPath)
		if m := addrRe.FindSubmatch(data); m != nil {
			return cmd, string(m[1])
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	data, _ := os.ReadFile(logPath)
	t.Fatalf("nocmapd never reported its address; log:\n%s", data)
	return nil, ""
}

// quickBody is a distinct fast problem per index.
func quickBody(t *testing.T, i int) []byte {
	t.Helper()
	app := nocmap.NewCoreGraph(fmt.Sprintf("crash-quick-%d", i))
	app.Connect("a", "b", float64(100+10*i))
	app.Connect("b", "c", 50)
	mesh, err := nocmap.NewMesh(2, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := nocmap.NewProblem(app, mesh)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return submitBody(t, raw, server.SolveSpec{})
}

// slowBody is a 16-core PBB search bounded to take on the order of a
// second — long enough that the SIGKILL always lands mid-solve, short
// enough that the post-reboot re-run stays cheap.
func slowBody(t *testing.T) []byte {
	t.Helper()
	app := nocmap.NewCoreGraph("crash-slow")
	const n = 16
	for i := 0; i < n; i++ {
		app.Connect(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", (i+1)%n), float64(40+i))
	}
	for i := 0; i < n; i += 2 {
		app.Connect(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", (i+5)%n), float64(25+i))
	}
	mesh, err := nocmap.NewMesh(4, 4, 5000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := nocmap.NewProblem(app, mesh)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return submitBody(t, raw, server.SolveSpec{Algorithm: "pbb", MaxQueue: 4000, MaxExpand: 50000})
}

func submitE2E(t *testing.T, base string, body []byte) string {
	t.Helper()
	resp, got := post(t, base+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d (body %s)", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

func solveSyncE2E(t *testing.T, base string, body []byte) server.JobStatus {
	t.Helper()
	_, got := post(t, base+"/v1/solve", body)
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatalf("decoding %s: %v", got, err)
	}
	return st
}

func jobStatusE2E(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	resp, got := get(t, base+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job %s: status %d (body %s)", id, resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitRemoteState(t *testing.T, base, id, want string, timeout time.Duration) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := jobStatusE2E(t, base, id)
		if st.State == want {
			return st
		}
		failed := st.State == server.StateFailed || st.State == server.StateCancelled
		if failed || time.Now().After(deadline) {
			t.Fatalf("job %s is %q, want %q (error: %v)", id, st.State, want, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
