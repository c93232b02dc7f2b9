package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/nocmap"
	"repro/nocmap/server"
	"repro/nocmap/store"
)

func init() {
	nocmap.Register("test-html-error", func(ctx context.Context, req *nocmap.Request) (*nocmap.Result, error) {
		return nil, errors.New(`core "a" <needs> & more`)
	})
}

// encoderBody is what writeJSON's Encoder (HTML escaping off) writes
// for st: the bytes every JobStatus response had before results were
// copied verbatim.
func encoderBody(t *testing.T, st server.JobStatus) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// spacedResult is a peer's result with whitespace and an HTML-sensitive
// byte in it: valid JSON, not in compact form.
var spacedResult = json.RawMessage("{\"cost\": 12.5,\n \"map\": [ 1, 2 ], \"note\": \"a <b>\"}")

// postRaw posts v with every spacedResult left as it is (json.Marshal
// would compact and escape it on the way out).
func postRaw(t *testing.T, url string, v any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	marshaled, err := json.Marshal(spacedResult)
	if err != nil {
		t.Fatal(err)
	}
	body = bytes.ReplaceAll(body, marshaled, spacedResult)
	if resp, got := post(t, url, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %d (body %s)", url, resp.StatusCode, got)
	}
}

// TestPeerResultServedCompacted: a result arriving with whitespace from
// a peer (replicate, reconcile) is served compacted, byte-identical to
// what the Encoder wrote for the raw bytes.
func TestPeerResultServedCompacted(t *testing.T) {
	_, ts := newConfiguredServer(t, server.Config{
		Pool: 1, QueueSize: 8, CacheSize: 8, IDPrefix: "p1-", Store: store.NewMemStore(),
	})
	rec := store.JobRecord{ID: "p0-job-00000001", Key: "k1", State: server.StateDone, Result: spacedResult, Seq: 1}
	want := encoderBody(t, server.JobStatus{ID: rec.ID, Key: rec.Key, State: rec.State, Result: spacedResult})

	postRaw(t, ts.URL+"/v1/replicate", server.RecordBatch{Origin: "p0-", Ops: jobOps(rec)})
	if _, got := get(t, ts.URL+"/v1/replicas/"+rec.ID); !bytes.Equal(got, want) {
		t.Fatalf("replica status =\n%s\nwant\n%s", got, want)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/promote", server.PromoteRequest{Origin: "p0-"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status = %d (body %s)", resp.StatusCode, body)
	}
	if _, got := get(t, ts.URL+"/v1/jobs/"+rec.ID); !bytes.Equal(got, want) {
		t.Fatalf("promoted status =\n%s\nwant\n%s", got, want)
	}

	rec.ID = "p0-job-00000002"
	want = encoderBody(t, server.JobStatus{ID: rec.ID, Key: rec.Key, State: rec.State, Result: spacedResult})
	postRaw(t, ts.URL+"/v1/reconcile", server.RecordBatch{Ops: jobOps(rec)})
	if _, got := get(t, ts.URL+"/v1/jobs/"+rec.ID); !bytes.Equal(got, want) {
		t.Fatalf("reconciled status =\n%s\nwant\n%s", got, want)
	}
}

// TestReconciledCacheEntryServedCompacted: a cache entry adopted from a
// peer answers later submissions with the compacted result.
func TestReconciledCacheEntryServedCompacted(t *testing.T) {
	_, solver := newTestServer(t)
	body := submitBody(t, tinyProblemJSON(t, "reconcile-cache"), server.SolveSpec{})
	_, got := post(t, solver.URL+"/v1/solve", body)
	var solved server.JobStatus
	if err := json.Unmarshal(got, &solved); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t)
	postRaw(t, ts.URL+"/v1/reconcile", server.RecordBatch{
		Ops: []store.Op{{Kind: store.OpPutCache, Key: solved.Key, Result: spacedResult}},
	})
	_, got = post(t, ts.URL+"/v1/solve", body)
	var hit server.JobStatus
	if err := json.Unmarshal(got, &hit); err != nil {
		t.Fatal(err)
	}
	want := encoderBody(t, server.JobStatus{ID: hit.ID, Key: solved.Key, State: server.StateDone,
		CacheHit: true, Result: spacedResult})
	if !bytes.Equal(got, want) {
		t.Fatalf("cache hit =\n%s\nwant\n%s", got, want)
	}
}

// TestEventsDoneMatchesStatus: the SSE "done" event carries exactly the
// GET /v1/jobs/{id} body (minus its newline), HTML-sensitive bytes in
// an error message included.
func TestEventsDoneMatchesStatus(t *testing.T) {
	_, ts := newTestServer(t)
	_, got := post(t, ts.URL+"/v1/solve",
		submitBody(t, tinyProblemJSON(t, "html-error"), server.SolveSpec{Algorithm: "test-html-error"}))
	var st server.JobStatus
	if err := json.Unmarshal(got, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateFailed || st.Error == nil || !strings.Contains(st.Error.Message, "<needs> &") {
		t.Fatalf("status = %s, want failed with the HTML-sensitive message", got)
	}
	_, status := get(t, ts.URL+"/v1/jobs/"+st.ID)
	if !bytes.Contains(status, []byte("<needs> &")) {
		t.Fatalf("GET body escaped the message: %s", status)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			if data+"\n" != string(status) {
				t.Fatalf("done event data =\n%s\nGET body =\n%s", data, status)
			}
			return
		}
	}
	t.Fatalf("stream ended without a done event (err %v)", sc.Err())
}
