package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/nocmap/server"
	"repro/nocmap/store"
)

// FuzzParseSubmit hammers the request-decoding front door shared by the
// server handlers and the shard router: POST /v1/jobs bodies of any
// shape must come back as either a typed SubmitError or a fully
// validated (problem, canonical JSON, spec) triple — never a panic.
// Accepted submissions must hash deterministically: the canonical form
// re-parses to the same JobKey, the invariant shard routing and the
// result cache stand on. The plain-form reader and the encoding/json
// path must agree on every body: the same canonical bytes and spec, or
// the same status and error payload.
func FuzzParseSubmit(f *testing.F) {
	f.Add([]byte(`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":100}]},` +
		`"topology":{"kind":"mesh","w":2,"h":2,"link_bw":1000}},` +
		`"options":{"algorithm":"nmap-single"}}`))
	f.Add([]byte(`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":100}]},` +
		`"topology":{"kind":"torus","w":2,"h":2,"link_bw":1000}},` +
		`"options":{"algorithm":"nmap-split","split":"min-paths","workers":-1}}`))
	f.Add([]byte(`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1000}]},` +
		`"topology":{"kind":"mesh","w":2,"h":2,"link_bw":100}}}`)) // infeasible
	f.Add([]byte(`{"options":{"algorithm":"anneal"}}`))
	f.Add([]byte(`{"problem": {`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"problem":{"topology":{"kind":"mesh","w":9999999,"h":9999999,"link_bw":1}}}`))
	for _, b := range plainBoundary {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, canon, spec, serr := server.ParseSubmit(data)
		_, wantCanon, wantSpec, wantErr := server.ParseSubmitJSON(data)
		if got, want := outcome(canon, spec, serr), outcome(wantCanon, wantSpec, wantErr); got != want {
			t.Fatalf("plain-form reader answered\n%s\nencoding/json answered\n%s\n(input %q)", got, want, data)
		}
		if serr != nil {
			if serr.Payload == nil || serr.Payload.Code == "" || serr.Status < 400 {
				t.Fatalf("rejection without a typed payload: %+v (input %q)", serr, data)
			}
			return
		}
		if p == nil || len(canon) == 0 {
			t.Fatalf("accepted submission without problem/canonical form (input %q)", data)
		}
		key := server.JobKey(canon, spec)
		if key == "" {
			t.Fatal("empty job key")
		}
		checkMarshalSpec(t, spec)
		// The canonical problem form must be self-canonical: feeding it
		// back through the parser reproduces itself (and therefore the
		// same key for any fixed options), whatever formatting the
		// original body had.
		body := append([]byte(`{"problem":`), canon...)
		body = append(body, '}')
		p2, canon2, _, serr2 := server.ParseSubmit(body)
		if serr2 != nil || p2 == nil {
			t.Fatalf("canonical form rejected: %v (canonical %s)", serr2, canon)
		}
		if string(canon2) != string(canon) {
			t.Fatalf("canonicalization is not a fixed point:\nfirst:  %s\nsecond: %s", canon, canon2)
		}
	})
}

// plainBoundary are submission bodies on either side of the plain form
// the fast path reads: escapes, case-folded and repeated keys, null,
// non-integer and out-of-range numbers, negative zero, floats that
// encode in exponent form, trailing bytes, and names json.Marshal
// escapes.
var plainBoundary = []string{
	`{"problem":{"app":{"name":"e\u0073c","edges":[{"from":"a\"","to":"b\\","bw":1}]},"topology":{"w":2,"h":2,"link_bw":10}}}`,
	`{"Problem":{"app":{"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"w":2,"h":2,"link_bw":10}}}`,
	`{"PROBLEM":{"app":{"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"w":2,"h":2,"link_bw":10}},"OPTIONS":{"Algorithm":"pbb"}}`,
	`{"problem":{"topology":{"w":2}},"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"w":2,"h":2,"link_bw":10}}}`,
	`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"w":2,"w":3,"h":2,"link_bw":10}},"options":{"workers":1,"workers":2}}`,
	`{"problem":null,"options":null}`,
	`{"problem":{"app":{"cores":null,"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"kind":null,"w":2,"h":2,"link_bw":10}}}`,
	`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"w":4.0,"h":2,"link_bw":10}}}`,
	`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"w":1e400,"h":2,"link_bw":1e400}}}`,
	`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":-0}]},"topology":{"w":-0,"h":2,"link_bw":-0}},"options":{"bandwidth_cap":-0,"workers":-0}}`,
	`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1e-7},{"from":"b","to":"a","bw":1e21}]},"topology":{"w":2,"h":1,"link_bw":1e22}},"options":{"bandwidth_cap":1e-7}}`,
	`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"w":2,"h":1,"link_bw":10}}} x`,
	`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"w":2,"h":1,"link_bw":10}}}` + "\x00",
	`{"problem":{"app":{"cores":["<a>","b&c","é"],"edges":[{"from":"<a>","to":"é","bw":1}]},"topology":{"w":2,"h":2,"link_bw":10}}}`,
	`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"w":2,"h":1,"link_bw":10}},"options":{"fast_queue":true,"max_queue":9223372036854775808}}`,
	`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1}]},"topology":{"w":2,"h":1,"link_bw":10}},"options":{"algorithm":"pbb","fast_queue":1,"split":"min-paths"}}`,
	`{"problem":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]}`,
	`{"problem":17,"extra":true}`,
}

// checkMarshalSpec fails unless the hand-written spec encoder writes
// json.Marshal's bytes for spec.
func checkMarshalSpec(t *testing.T, spec server.SolveSpec) {
	t.Helper()
	got, err := server.MarshalSpec(spec)
	want, wantErr := json.Marshal(spec)
	if !bytes.Equal(got, want) || (err == nil) != (wantErr == nil) {
		t.Fatalf("spec %+v encodes as %s (%v), json.Marshal writes %s (%v)", spec, got, err, want, wantErr)
	}
}

// outcome renders what ParseSubmit returned for comparison: the
// canonical bytes and spec, or the status and error payload.
func outcome(canon []byte, spec server.SolveSpec, serr *server.SubmitError) string {
	if serr != nil {
		pay, _ := json.Marshal(serr.Payload)
		return fmt.Sprintf("%d %s", serr.Status, pay)
	}
	return fmt.Sprintf("%s %+v", canon, spec)
}

// FuzzSubmitTwice pins the submit memo against the parse path: any body
// ParseSubmit accepts, sent to a fresh in-process server, answers the
// second time exactly as the first with cache_hit set, and the third
// time — admitted from the memo without a decode — exactly as the
// second, all under the key JobKey(ParseSubmit(body)) names. A body
// whose solve does not end done is never cached; it must answer the
// same way again.
func FuzzSubmitTwice(f *testing.F) {
	f.Add([]byte(`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":100}]},` +
		`"topology":{"kind":"mesh","w":2,"h":2,"link_bw":1000}},` +
		`"options":{"algorithm":"nmap-single"}}`))
	f.Add([]byte(`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":100}]},` +
		`"topology":{"kind":"torus","w":2,"h":2,"link_bw":1000}},` +
		`"options":{"algorithm":"nmap-split","split":"min-paths","workers":-1,"durability":"replicated"}}`))
	f.Add([]byte(`{"problem":{"app":{"edges":[{"from":"a","to":"b","bw":1000}]},` +
		`"topology":{"kind":"mesh","w":2,"h":2,"link_bw":100}}}`)) // infeasible
	f.Add([]byte(`{"problem":{"app":{"cores":["a","b"]},"topology":{"w":2,"h":1,"link_bw":10}},` +
		`"options":{"algorithm":"pbb","max_expand":10}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, canon, spec, serr := server.ParseSubmit(data)
		if serr != nil {
			return
		}
		key := server.JobKey(canon, spec)
		svc, err := server.New(server.Config{Pool: 1, QueueSize: 4, CacheSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		h := svc.Handler()
		solve := func(budget time.Duration) (server.JobStatus, bool) {
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			defer cancel()
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(data)).WithContext(ctx)
			h.ServeHTTP(rec, req)
			var st server.JobStatus
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
				t.Fatalf("accepted body answered %d %s (input %q)", rec.Code, rec.Body, data)
			}
			if st.Key != key {
				t.Fatalf("answer key %s, want JobKey(ParseSubmit(body)) %s (input %q)", st.Key, key, data)
			}
			return st, ctx.Err() == nil
		}
		first, ok := solve(2 * time.Second)
		if !ok {
			return // the solve outran the budget; nothing was cached
		}
		want := first
		want.CacheHit = first.State == server.StateDone
		for i := 0; i < 2; i++ {
			next, ok := solve(10 * time.Second) // a failed first solve runs again
			if !ok {
				t.Fatalf("repeat %d outran the budget (input %q)", i, data)
			}
			want.ID = next.ID
			a, _ := json.Marshal(next)
			b, _ := json.Marshal(want)
			if !bytes.Equal(a, b) {
				t.Fatalf("repeat %d answered\n%s\nwant\n%s\n(input %q)", i, a, b, data)
			}
		}
	})
}

// FuzzRecordBatch sends any body to POST /v1/replicate and
// POST /v1/reconcile of a fresh in-process server: each must answer 200
// or a typed 400 bad_request, never panic. Ops are store.Ops, so a body
// can name any kind, leave a job op's record out, or leave a record's
// fields empty. Promoting the body's origin afterwards and listing the
// records must answer 200 as well.
func FuzzRecordBatch(f *testing.F) {
	f.Add([]byte(`{"origin":"p0-","ops":[{"op":"job","job":{"id":"p0-job-00000001","key":"k1",` +
		`"state":"done","result":{"n":1},"seq":1}},{"op":"deljob","id":"p0-job-00000002"}]}`))
	f.Add([]byte(`{"origin":"p0-","ops":[{"op":"job","job":{"id":"p0-job-00000003","state":"queued",` +
		`"problem":{"app":{"edges":[{"from":"a","to":"b","bw":100}]},` +
		`"topology":{"kind":"mesh","w":2,"h":2,"link_bw":1000}}}},{"op":"cache","key":"k2","result":[1, 2]}]}`))
	f.Add([]byte(`{"ops":[{"op":"job"}]}`))
	f.Add([]byte(`{"ops":[{"op":"delreplica","id":"p0-job-00000001"}]}`))
	f.Add([]byte(`{"ops":[{"op":"cache","key":""},{"op":"job","job":{"id":"","state":"done"}}]}`))
	f.Add([]byte(`{"ops":null}`))
	f.Add([]byte(`{"ops":[{"op":"job","job":{"id":"p0-job-1","state":"done"},"ref":true}]}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		svc, err := server.New(server.Config{Pool: 1, QueueSize: 4, CacheSize: 4, IDPrefix: "p1-",
			Store: store.NewMemStore()})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		h := svc.Handler()
		send := func(method, path string, body []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			if rec.Code == http.StatusOK {
				return
			}
			if rec.Code != http.StatusBadRequest || errCode(t, rec.Body.Bytes()) != server.CodeBadRequest {
				t.Fatalf("%s %s answered %d %s (input %q)", method, path, rec.Code, rec.Body, data)
			}
		}
		send(http.MethodPost, "/v1/replicate", data)
		send(http.MethodPost, "/v1/reconcile", data)
		var batch server.RecordBatch
		if json.Unmarshal(data, &batch) == nil {
			origin, _ := json.Marshal(server.PromoteRequest{Origin: batch.Origin})
			send(http.MethodPost, "/v1/promote", origin)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/records", nil))
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &batch) != nil {
			t.Fatalf("GET /v1/records answered %d %s (input %q)", rec.Code, rec.Body, data)
		}
	})
}
