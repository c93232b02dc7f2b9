package server_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/nocmap/server"
)

// TestCanonicalGolden pins the canonical problem bytes and JobKey of a
// fixed corpus: the benchmark's four workload shapes, a torus, a body
// with shuffled fields and whitespace, and one with escaped names and
// extreme bandwidths. Stores, replicas and the shard router all key on
// these bytes, so any change to them orphans every persisted result.
func TestCanonicalGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/canonical_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name      string `json:"name"`
		Body      string `json:"body"`
		Canonical string `json:"canonical"`
		Key       string `json:"key"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden corpus")
	}
	for _, c := range cases {
		_, canon, spec, serr := server.ParseSubmit([]byte(c.Body))
		if serr != nil {
			t.Errorf("%s: %v", c.Name, serr)
			continue
		}
		if string(canon) != c.Canonical {
			t.Errorf("%s: canonical bytes drifted:\ngot:  %s\nwant: %s", c.Name, canon, c.Canonical)
		}
		if key := server.JobKey(canon, spec); key != c.Key {
			t.Errorf("%s: JobKey %s, want %s", c.Name, key, c.Key)
		}
	}
}
