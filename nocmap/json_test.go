package nocmap

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// TestProblemJSONRoundTrip serializes a problem, rebuilds it and solves
// both to the same result.
func TestProblemJSONRoundTrip(t *testing.T) {
	p := vopdProblem(t)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Problem
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.App().Name != "VOPD" || back.App().N() != p.App().N() {
		t.Fatalf("app did not round-trip: %s/%d", back.App().Name, back.App().N())
	}
	if back.Topology().W != p.Topology().W || back.Topology().H != p.Topology().H ||
		back.Topology().Kind != p.Topology().Kind {
		t.Fatal("topology did not round-trip")
	}
	a, err := Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), &back)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Assignment {
		if a.Assignment[v] != b.Assignment[v] {
			t.Fatalf("round-tripped problem solved differently at core %d", v)
		}
	}
}

// TestProblemJSONTorus covers the torus wire form.
func TestProblemJSONTorus(t *testing.T) {
	app, err := LoadApp("dsp")
	if err != nil {
		t.Fatal(err)
	}
	torus, err := NewTorus(3, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(app.Graph, torus)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Problem
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Topology().Kind.String() != "torus" || back.Topology().Links()[0].BW != 500 {
		t.Fatal("torus spec did not round-trip")
	}
}

// TestProblemJSONRejectsInvalid asserts deserialization re-runs the
// construction validation.
func TestProblemJSONRejectsInvalid(t *testing.T) {
	bad := `{"app":{"name":"x","edges":[{"from":"a","to":"b","bw":100}]},
	         "topology":{"kind":"mesh","w":0,"h":4,"link_bw":100}}`
	var p Problem
	if err := json.Unmarshal([]byte(bad), &p); err == nil {
		t.Fatal("invalid topology dims must be rejected")
	}
}

// TestResultJSONRoundTrip serializes a result and revives the mapping
// through Problem.MappingOf.
func TestResultJSONRoundTrip(t *testing.T) {
	p := vopdProblem(t)
	res, err := Solve(context.Background(), p, WithAlgorithm("nmap-split"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != res.Algorithm || back.Cost != res.Cost ||
		back.Feasible != res.Feasible || back.Routing.Mode != res.Routing.Mode {
		t.Fatalf("result did not round-trip: %+v vs %+v", back, res)
	}
	if back.Mapping() != nil {
		t.Fatal("deserialized result must not carry a live mapping")
	}
	m, err := p.MappingOf(back.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if m.CommCost() != res.Cost.Comm {
		t.Fatalf("revived cost %g != %g", m.CommCost(), res.Cost.Comm)
	}
}

// FuzzProblemCodec compares the problem codec's plain-form paths with
// encoding/json. Wherever readPlainProblem accepts an input,
// json.Unmarshal accepts it too and decodes the same jsonProblem;
// wherever appendProblem writes a decoded problem, its bytes are
// json.Marshal's; and the bytes it writes are always read back by the
// plain-form reader, so canonical input never takes the slow path.
func FuzzProblemCodec(f *testing.F) {
	for _, s := range []string{
		`{"app":{"name":"t","cores":["a","b"],"edges":[{"from":"a","to":"b","bw":100}]},"topology":{"kind":"mesh","w":2,"h":2,"link_bw":1000}}`,
		` { "topology" : { "link_bw" : 1E3 , "h" : 2 , "w" : 2 } , "app" : { "edges" : [ ] , "cores" : [ ] } } `,
		`{"app":{"name":"t","edges":[{"from":"a\"b","to":"c\\d","bw":1}]},"topology":{"w":2,"h":2,"link_bw":10}}`,
		`{"Problem":{},"PROBLEM":{},"App":{"name":"x"},"TOPOLOGY":{"W":2}}`,
		`{"app":{"name":"a"},"app":{"cores":["b"]},"topology":{"w":1,"w":2,"h":2,"link_bw":1}}`,
		`{"app":null,"topology":{"kind":null,"w":2,"h":2,"link_bw":1}}`,
		`{"topology":{"w":4.0,"h":2,"link_bw":1}}`,
		`{"topology":{"w":1e400,"h":2,"link_bw":1e400}}`,
		`{"topology":{"w":-0,"h":-0,"link_bw":-0}}`,
		`{"app":{"edges":[{"from":"a","to":"b","bw":1e-7},{"from":"b","to":"a","bw":1e21}]},"topology":{"w":2,"h":1,"link_bw":0.000001}}`,
		`{"app":{"edges":[{"from":"a","to":"b","bw":123456789012345678901234}]},"topology":{"w":2,"h":1,"link_bw":5e-324}}`,
		`{"topology":{"w":2,"h":1,"link_bw":1}} x`,
		`{"topology":{"w":2,"h":1,"link_bw":1}}` + "\x00",
		`{"app":{"cores":["<a>","b&c","é","é"," "]},"topology":{"kind":"torus","w":2,"h":2,"link_bw":1}}`,
		`{"app":{"cores":["a"]},"topology":{"w":9223372036854775808,"h":01,"link_bw":-}}`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want jsonProblem
		werr := json.Unmarshal(data, &want)
		got, ok := readPlainProblem(data)
		if ok && werr != nil {
			t.Fatalf("plain reader accepted what json.Unmarshal rejects (%v): %q", werr, data)
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("plain reader decoded %q as\n%#v\nwant\n%#v", data, got, want)
		}
		if werr != nil {
			return
		}
		wantB, merr := json.Marshal(want)
		gotB, eok := appendProblem(nil, &want)
		if !eok {
			return
		}
		if merr != nil || !bytes.Equal(gotB, wantB) {
			t.Fatalf("plain encoder wrote\n%s\njson.Marshal wrote (err %v)\n%s", gotB, merr, wantB)
		}
		if _, ok := readPlainProblem(gotB); !ok {
			t.Fatalf("plain reader rejected the plain encoder's bytes %s", gotB)
		}
	})
}
