package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobStatusEncoding checks appendJobStatus against the Encoder
// writeJSON used before it (HTML escaping off, trailing newline): a
// result compacted once where it enters the process and then copied
// verbatim must serve the same bytes the Encoder writes for the raw
// result as it arrived.
func FuzzJobStatusEncoding(f *testing.F) {
	for _, s := range []struct {
		id, key, state, code, msg, durability string
		result                                []byte
		hit, hasErr                           bool
	}{
		{"job-1", "k", "done", "", "", "", []byte(`{"cost":12.5,"map":[1,2]}`), true, false},
		{"job-<&>", "k<>", "failed", "invalid_problem", "a <b> & c", "replicated", []byte(`{"a":"<b>&"}`), false, true},
		{"job- ", "k ", "done", "", "", "", []byte("[\" \",\" \"]"), false, false},
		{"job-\xff", "k", "cancelled", "cancelled", "bad \xfe utf8", "", []byte("\"\xff\xfe\""), false, true},
		{"job-\x01", "k\x1f", "done\t", "c\n", "m\"\\", "", []byte(`1`), false, true},
		{"job-2", "k", "done", "", "", "", nil, false, false},
		{"job-3", "k", "done", "", "", "", []byte{}, true, false},
		{"job-4", "k", "done", "", "", "degraded", []byte("{\"a\":\n 1,\t\"b\" : [ ]}\r\n"), true, false},
		{"job-5", "k", "done", "", "", "", []byte(`{"a":"x y"}`), false, false},
		{"job-6", "k", "done", "", "", "", []byte(`{"a":1`), false, false},
	} {
		f.Add(s.id, s.key, s.state, s.code, s.msg, s.durability, s.result, s.hit, s.hasErr)
	}
	f.Fuzz(func(t *testing.T, id, key, state, code, msg, durability string, result []byte, hit, hasErr bool) {
		st := JobStatus{ID: id, Key: key, State: state, CacheHit: hit, Coalesced: !hit,
			Result: result, Durability: durability}
		if hasErr {
			st.Error = &ErrorPayload{Code: code, Message: msg}
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(&st); err != nil {
			// Only a result that is not JSON fails to encode, and no such
			// result enters the server: decoders refuse it first.
			if json.Valid(result) {
				t.Fatalf("Encoder failed on a valid result: %v", err)
			}
			return
		}
		entered := compactJSON(st.Result)
		if again := compactJSON(entered); !bytes.Equal(again, entered) {
			t.Fatalf("compactJSON is not idempotent: %q -> %q", entered, again)
		}
		st.Result = entered
		if got := appendJobStatus([]byte("prefix"), &st); !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
			t.Fatalf("appendJobStatus = %q\nEncoder = %q", got, want.Bytes())
		}
	})
}
