package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/nocmap/server"
)

// FuzzParseSubmit hammers the request-decoding front door shared by the
// server handlers and the shard router: POST /v1/jobs bodies of any
// shape must come back as either a typed SubmitError or a fully
// validated (problem, canonical JSON, spec) triple — never a panic.
// Accepted submissions must hash deterministically: the canonical form
// re-parses to the same JobKey, the invariant shard routing and the
// result cache stand on.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		p, canon, spec, serr := server.ParseSubmit(data)
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
