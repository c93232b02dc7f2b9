package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/nocmap"
	"repro/nocmap/client"
	"repro/nocmap/server"
	"repro/nocmap/shard"
)

// TestChaosFleetE2E is the replicated fleet's acceptance test, end to
// end against the real binaries (`make chaos-smoke` runs it under
// -race): a nocmapsh router probing three durable nocmapd backends,
// sustained client load, then SIGKILL one backend while it is
// mid-solve with more work queued behind it. The fleet must
//
//   - keep answering every previously acknowledged job ID through the
//     router, byte-identical, with the dead backend's answers now
//     served from its ring successor's promoted replicas,
//   - re-run the killed backend's queued and running jobs to completion
//     on the successor under their original IDs (zero lost jobs),
//   - keep accepting and solving new work throughout the outage,
//   - and, when the backend reboots over its surviving store, reconcile
//     it via the router's anti-entropy sweep until it agrees with the
//     fleet about its own jobs' outcomes.
func TestChaosFleetE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real nocmapd/nocmapsh processes")
	}
	workdir := t.TempDir()
	nocmapd := buildBin(t, workdir, "nocmapd")
	nocmapsh := buildBin(t, workdir, "nocmapsh")

	// Fixed ports so a killed backend can come back at the same URL —
	// the identity the ring, the prober and the replicas all key on.
	ports := make([]int, 3)
	urls := make([]string, 3)
	for i := range ports {
		ports[i] = freePort(t)
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", ports[i])
	}
	backendArgs := func(i int) []string {
		return []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-store", filepath.Join(workdir, fmt.Sprintf("store%d", i)),
			"-pool", "1", "-queue", "64", "-id-prefix", fmt.Sprintf("c%d-", i),
		}
	}
	procs := make([]*exec.Cmd, 3)
	for i := range procs {
		procs[i] = startProc(t, nocmapd, backendArgs(i),
			filepath.Join(workdir, fmt.Sprintf("backend%d.log", i)))
	}
	startProc(t, nocmapsh, []string{
		"-addr", "127.0.0.1:0", "-backends", strings.Join(urls, ","),
		"-probe", "40ms", "-fail-threshold", "2", "-recover-threshold", "2",
	}, filepath.Join(workdir, "router.log"))
	routerURL := addrFromLog(t, filepath.Join(workdir, "router.log"))
	waitUntil(t, "the fleet to answer healthz", func() bool {
		resp, err := http.Get(routerURL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// An in-test router over the same URLs predicts ownership (the ring
	// is a pure function of the backend list), letting the test aim
	// work at the backend it is about to kill.
	oracle, err := shard.New(shard.Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(oracle.Close)

	// Phase 1: baseline load. Solve a batch of distinct problems and
	// capture the router's exact answer for each.
	c := client.New(routerURL)
	answers := map[string][]byte{}
	for i := 0; i < 8; i++ {
		st := chaosSolve(t, c, routerURL, fmt.Sprintf("chaos-base-%d", i))
		answers[st.ID] = chaosBody(t, routerURL+"/v1/jobs/"+st.ID)
	}

	// Sustained background load for the rest of the test: distinct
	// problems, solved through the router via the client (whose single
	// 502 retry is part of the story). Acknowledged IDs are recorded;
	// the end of the test asserts none of them is ever lost.
	var loadMu sync.Mutex
	loadIDs := []string{}
	loadDone := make(chan struct{})
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for i := 0; ; i++ {
			select {
			case <-loadDone:
				return
			case <-time.After(60 * time.Millisecond):
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			st, err := c.Submit(ctx, chaosProblem(t, fmt.Sprintf("chaos-load-%d", i)), server.SolveSpec{})
			cancel()
			if err != nil || st.ID == "" {
				continue // never acknowledged: nothing to lose
			}
			loadMu.Lock()
			loadIDs = append(loadIDs, st.ID)
			loadMu.Unlock()
		}
	}()
	defer loadWG.Wait()
	defer close(loadDone)

	// Phase 2: park a deliberately slow solve on some backend — that
	// backend is the victim — and queue two quick jobs behind it on the
	// victim's single worker.
	slowID := chaosSubmit(t, routerURL, slowChaosBody(t))
	victim := -1
	for i := range urls {
		if strings.HasPrefix(slowID, fmt.Sprintf("c%d-", i)) {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("slow job ID %q carries no backend prefix", slowID)
	}
	queuedIDs := []string{}
	for i := 0; len(queuedIDs) < 2 && i < 400; i++ {
		p := chaosProblem(t, fmt.Sprintf("chaos-queued-%d", i))
		raw, _ := json.Marshal(p)
		if oracle.Owner(chaosKey(t, raw)) != urls[victim] {
			continue
		}
		queuedIDs = append(queuedIDs, chaosSubmit(t, routerURL, submitBody(t, raw, server.SolveSpec{})))
	}
	if len(queuedIDs) < 2 {
		t.Fatal("could not aim two queued jobs at the victim backend")
	}

	// Replication must have converged (nothing pending anywhere) and
	// the slow solve must actually be running before the plug is pulled.
	waitUntil(t, "replication to converge before the kill", func() bool {
		var merged shard.MergedStats
		if json.Unmarshal(chaosBody(t, routerURL+"/v1/stats"), &merged) != nil {
			return false
		}
		return merged.Total.ReplicationPending == 0 && merged.Total.Replicas > 0
	})
	waitUntil(t, "the slow solve to be running on the victim", func() bool {
		var st server.JobStatus
		if json.Unmarshal(chaosBody(t, urls[victim]+"/v1/jobs/"+slowID), &st) != nil {
			return false
		}
		return st.State == server.StateRunning
	})

	// SIGKILL mid-solve.
	if err := procs[victim].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = procs[victim].Wait()

	waitUntil(t, "the router to mark the victim down and promote its replicas", func() bool {
		info := chaosShards(t, routerURL)
		return backendHealthIn(info, urls[victim]) == shard.HealthDown && info.Router.Promotions >= 1
	})

	// Zero lost results: every pre-kill answer still serves through the
	// router, byte for byte.
	for id, want := range answers {
		got := chaosBody(t, routerURL+"/v1/jobs/"+id)
		if !bytes.Equal(got, want) {
			t.Fatalf("job %s changed across the kill:\n before: %s\n after:  %s", id, want, got)
		}
	}
	// Zero lost jobs: the victim's running and queued work re-runs to
	// completion on the successor under the original IDs.
	successorResults := map[string][]byte{}
	for _, id := range append([]string{slowID}, queuedIDs...) {
		st := chaosWaitDone(t, routerURL, id, 90*time.Second)
		if len(st.Result) == 0 {
			t.Fatalf("re-run job %s finished without a result", id)
		}
		successorResults[id] = st.Result
	}
	// The fleet keeps taking new work while degraded.
	chaosSolve(t, c, routerURL, "chaos-during-outage")

	// Phase 3: the victim reboots over its surviving store; the router
	// reconciles it and marks it up.
	procs[victim] = startProc(t, nocmapd, backendArgs(victim),
		filepath.Join(workdir, fmt.Sprintf("backend%d.reboot.log", victim)))
	waitUntil(t, "the victim to rejoin and reconcile", func() bool {
		info := chaosShards(t, routerURL)
		return backendHealthIn(info, urls[victim]) == shard.HealthUp && info.Router.Reconciles >= 1
	})

	// Anti-entropy convergence: asked directly, the rebooted victim
	// eventually agrees with the fleet about its own interrupted jobs —
	// done, with exactly the bytes the successor's re-run produced
	// (adopted via reconcile, or recomputed identically by the repro
	// profile's determinism; the two are indistinguishable by design).
	for id, want := range successorResults {
		waitUntil(t, fmt.Sprintf("the victim to converge on job %s", id), func() bool {
			var st server.JobStatus
			if json.Unmarshal(chaosBody(t, urls[victim]+"/v1/jobs/"+id), &st) != nil {
				return false
			}
			return st.State == server.StateDone && bytes.Equal(st.Result, want)
		})
	}

	// Finally: nothing the fleet ever acknowledged has been lost.
	loadMu.Lock()
	acked := append([]string(nil), loadIDs...)
	loadMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("the load loop never got a job acknowledged")
	}
	for _, id := range acked {
		st := chaosWaitDone(t, routerURL, id, 90*time.Second)
		if st.State != server.StateDone {
			t.Fatalf("acknowledged load job %s ended %s", id, st.State)
		}
	}
}

func buildBin(t *testing.T, workdir, name string) string {
	t.Helper()
	bin := filepath.Join(workdir, name)
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// startProc boots a binary, tees its log to logPath and waits for its
// "listening on" line.
func startProc(t *testing.T, bin string, args []string, logPath string) *exec.Cmd {
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
		defer logf.Close()
		if cmd.ProcessState != nil {
			return
		}
		// Stop gracefully, so a -cover build writes its counters
		// (scripts/census.sh); kill a process that ignores SIGTERM.
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	addrFromLog(t, logPath)
	return cmd
}

func addrFromLog(t *testing.T, logPath string) string {
	t.Helper()
	addrRe := regexp.MustCompile(`listening on (http://[0-9.:]+)`)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		data, _ := os.ReadFile(logPath)
		if m := addrRe.FindSubmatch(data); m != nil {
			return string(m[1])
		}
		time.Sleep(20 * time.Millisecond)
	}
	data, _ := os.ReadFile(logPath)
	t.Fatalf("%s never reported its address; log:\n%s", logPath, data)
	return ""
}

func chaosProblem(t *testing.T, name string) *nocmap.Problem {
	t.Helper()
	app := nocmap.NewCoreGraph(name)
	app.Connect("a", "b", 120)
	app.Connect("b", "c", 60)
	mesh, err := nocmap.NewMesh(2, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := nocmap.NewProblem(app, mesh)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// slowChaosBody is a PBB search bounded to run on the order of a
// second — wide enough that the SIGKILL always lands mid-solve.
func slowChaosBody(t *testing.T) []byte {
	t.Helper()
	app := nocmap.NewCoreGraph("chaos-slow")
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

func chaosKey(t *testing.T, problem []byte) string {
	t.Helper()
	body := submitBody(t, problem, server.SolveSpec{})
	_, canon, spec, serr := server.ParseSubmit(body)
	if serr != nil {
		t.Fatal(serr.Payload.Message)
	}
	return server.JobKey(canon, server.ProfileRepro.Apply(spec))
}

// chaosBody GETs a URL, tolerating transient transport errors (the
// fleet is being shot at) by retrying briefly; it returns the last
// response body.
func chaosBody(t *testing.T, url string) []byte {
	t.Helper()
	var last []byte
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			body := readAll(t, resp)
			if resp.StatusCode == http.StatusOK {
				return body
			}
			last = body
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("GET %s kept failing; last body: %s", url, last)
	return nil
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func chaosShards(t *testing.T, routerURL string) shard.ShardInfo {
	t.Helper()
	var info shard.ShardInfo
	if err := json.Unmarshal(chaosBody(t, routerURL+"/v1/shards"), &info); err != nil {
		t.Fatal(err)
	}
	return info
}

func chaosSolve(t *testing.T, c *client.Client, routerURL, name string) server.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Submit(ctx, chaosProblem(t, name), server.SolveSpec{})
	if err != nil {
		t.Fatalf("solve %s: %v", name, err)
	}
	return chaosWaitDone(t, routerURL, st.ID, 60*time.Second)
}

func chaosSubmit(t *testing.T, routerURL string, body []byte) string {
	t.Helper()
	resp, err := http.Post(routerURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, got)
	}
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// chaosWaitDone polls a job through the router until it is done,
// tolerating the transient errors of an in-progress failover.
func chaosWaitDone(t *testing.T, routerURL, id string, timeout time.Duration) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st server.JobStatus
	for time.Now().Before(deadline) {
		if json.Unmarshal(chaosBody(t, routerURL+"/v1/jobs/"+id), &st) == nil {
			switch st.State {
			case server.StateDone:
				return st
			case server.StateFailed, server.StateCancelled:
				t.Fatalf("job %s ended %s (error: %v)", id, st.State, st.Error)
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never finished (last state %q)", id, st.State)
	return st
}
