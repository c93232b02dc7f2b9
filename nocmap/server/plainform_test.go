package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/nocmap/server"
	"repro/nocmap/shard"
)

// plainFormCorpus gathers the bodies the plain-form reader is checked
// on: the FuzzParseSubmit seed corpus, the plain-form boundary seeds
// and the canonical golden corpus.
func plainFormCorpus(t *testing.T) (bodies []string, golden []string) {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzParseSubmit/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzParseSubmit corpus: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if body, err := strconv.Unquote(strings.TrimSuffix(lit, ")")); ok && err == nil {
			bodies = append(bodies, body)
		} else {
			t.Fatalf("%s: unreadable corpus entry", f)
		}
	}
	bodies = append(bodies, plainBoundary...)
	raw, err := os.ReadFile("testdata/canonical_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Body string `json:"body"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		golden = append(golden, c.Body)
	}
	return append(bodies, golden...), golden
}

// TestPlainFormBackendAndRouter submits every corpus body to a backend
// and through a shard router in front of it, and checks both answer as
// the encoding/json path of ParseSubmit says they must: the job key of
// JobKey(canonical, spec), or the status and error payload. Every
// golden body without escapes or non-ASCII bytes, and the canonical
// body of each such golden case, must take the plain-form reader.
func TestPlainFormBackendAndRouter(t *testing.T) {
	bodies, golden := plainFormCorpus(t)
	svc, err := server.New(server.Config{Pool: 1, QueueSize: 4 * len(bodies), CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	backend := httptest.NewServer(svc.Handler())
	defer svc.Close()
	defer backend.Close()
	router, err := shard.New(shard.Config{Backends: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	for _, body := range bodies {
		_, canon, spec, serr := server.ParseSubmitJSON([]byte(body))
		for _, base := range []string{backend.URL, front.URL} {
			resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if serr != nil {
				var want bytes.Buffer
				enc := json.NewEncoder(&want)
				enc.SetEscapeHTML(false)
				if err := enc.Encode(map[string]*server.ErrorPayload{"error": serr.Payload}); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != serr.Status || !bytes.Equal(got, want.Bytes()) {
					t.Errorf("%s answered %d %s, want %d %s (body %q)", base, resp.StatusCode, got, serr.Status, want.Bytes(), body)
				}
				continue
			}
			var st server.JobStatus
			if err := json.Unmarshal(got, &st); err != nil || st.Key != server.JobKey(canon, spec) {
				t.Errorf("%s answered %d %s, want key %s (body %q)", base, resp.StatusCode, got, server.JobKey(canon, spec), body)
			}
		}
	}
	for _, body := range golden {
		_, canon, _, serr := server.ParseSubmitJSON([]byte(body))
		if serr != nil {
			t.Fatalf("golden body rejected: %v", serr)
		}
		if escaped(body) {
			continue
		}
		if !server.ReadsPlain([]byte(body)) {
			t.Errorf("golden body missed the plain-form reader: %s", body)
		}
		if plain := `{"problem":` + string(canon) + `}`; !server.ReadsPlain([]byte(plain)) {
			t.Errorf("canonical body missed the plain-form reader: %s", plain)
		}
	}
}

// escaped reports whether s holds an escape sequence or a non-ASCII
// byte, which keep a body out of the plain form.
func escaped(s string) bool {
	return strings.IndexFunc(s, func(r rune) bool { return r == '\\' || r >= 0x80 }) >= 0
}

// TestMarshalSpec checks the spec encoder against json.Marshal on every
// field set and unset, and on the values it hands to json.Marshal: a
// bandwidth cap, names json.Marshal escapes and non-ASCII names.
func TestMarshalSpec(t *testing.T) {
	specs := []server.SolveSpec{
		{},
		{Algorithm: "nmap-single", Split: server.SplitAllPaths},
		{Algorithm: "pbb", Workers: -1, Split: server.SplitMinPaths, FastQueue: true,
			MaxQueue: 7, MaxExpand: -3, Durability: server.DurabilityReplicated},
		{Workers: 4},
		{MaxExpand: 1 << 40},
		{BandwidthCap: 1e-7},
		{BandwidthCap: 250, Algorithm: "nmap-split"},
		{Algorithm: "<a>&b"},
		{Split: "é"},
		{Durability: "a\"b\\c\n"},
	}
	for _, spec := range specs {
		checkMarshalSpec(t, spec)
	}
}
