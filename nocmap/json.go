package nocmap

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/graph"
	"repro/internal/topology"
)

// jsonProblem is the wire form of a Problem: the core graph in the
// repository's JSON graph format plus a topology spec. Link bandwidth is
// uniform in the wire form.
type jsonProblem struct {
	App      graph.Wire   `json:"app"`
	Topology jsonTopology `json:"topology"`
}

type jsonTopology struct {
	Kind string  `json:"kind"` // "mesh" or "torus"
	W    int     `json:"w"`
	H    int     `json:"h"`
	BW   float64 `json:"link_bw"` // MB/s, uniform
}

// MarshalJSON serializes the problem as its application graph plus
// topology spec, in compact form: these bytes are the canonical form
// every derived hash keys on.
func (p *Problem) MarshalJSON() ([]byte, error) {
	if p.app == nil || p.topo == nil {
		return nil, fmt.Errorf("nocmap: marshaling uninitialized problem: %w", ErrNilInput)
	}
	bw := 0.0
	if links := p.topo.Links(); len(links) > 0 {
		bw = links[0].BW
	}
	in := jsonProblem{
		App: p.app.ToWire(),
		Topology: jsonTopology{
			Kind: p.topo.Kind.String(),
			W:    p.topo.W,
			H:    p.topo.H,
			BW:   bw,
		},
	}
	// The bytes are written by hand, byte-identical to json.Marshal; a
	// string that needs escaping or a non-finite float sends the
	// problem through json.Marshal instead.
	buf := encodeBufs.Get().(*[]byte)
	b, ok := appendProblem((*buf)[:0], &in)
	var out []byte
	if ok {
		out = append(out, b...)
	}
	if cap(b) <= 1<<20 {
		*buf = b
		encodeBufs.Put(buf)
	}
	if !ok {
		return json.Marshal(in)
	}
	return out, nil
}

// MaxWireNodes bounds the topology size accepted from the wire form
// (64k nodes — three orders of magnitude beyond the paper's largest
// mesh). Problems built programmatically via NewMesh/NewTorus are not
// capped; the limit exists so a few bytes of hostile JSON cannot make
// a deserializing service allocate an arbitrarily large topology.
const MaxWireNodes = 1 << 16

// UnmarshalJSON rebuilds the problem in one decoding pass, re-running
// the NewProblem validation on the decoded pair. Small topologies are
// interned: every problem decoded (or capped with WithBandwidthCap) onto
// the same kind, size and link bandwidth shares one immutable Topology
// and its warm routing caches.
func (p *Problem) UnmarshalJSON(data []byte) error {
	// Input in the plain form is read without encoding/json; anything
	// else goes through json.Unmarshal.
	in, ok := readPlainProblem(data)
	if !ok {
		in = jsonProblem{}
		if err := json.Unmarshal(data, &in); err != nil {
			return fmt.Errorf("nocmap: parsing problem: %w", err)
		}
	}
	// The product check is in division form: w*h can overflow int on
	// 32-bit platforms, which would wave the hostile input through.
	if w, h := in.Topology.W, in.Topology.H; w > MaxWireNodes || h > MaxWireNodes ||
		(w > 0 && h > 0 && w > MaxWireNodes/h) {
		return fmt.Errorf("nocmap: topology %dx%d exceeds the %d-node wire limit: %w",
			w, h, MaxWireNodes, topology.ErrInvalidDimensions)
	}
	app, err := in.App.CoreGraph()
	if err != nil {
		return err
	}
	var kind topology.Kind
	switch in.Topology.Kind {
	case topology.TorusKind.String():
		kind = topology.TorusKind
	case topology.MeshKind.String(), "":
		kind = topology.MeshKind
	default:
		return fmt.Errorf("nocmap: unknown topology kind %q", in.Topology.Kind)
	}
	topo, err := buildTopology(kind, in.Topology.W, in.Topology.H, in.Topology.BW)
	if err != nil {
		return err
	}
	built, err := NewProblem(app, topo)
	if err != nil {
		return err
	}
	*p = *built
	return nil
}

// The problem codec reads and writes the plain form of jsonProblem by
// hand. The plain form is what json.Marshal writes for a problem whose
// strings need no escaping: strings of plainByte bytes with no escape
// sequence, the exact field names each at most once, no null but for
// an absent list of cores or edges, integer literals that fit int for
// w and h, numbers strconv.ParseFloat accepts for bw and link_bw, and
// nothing but whitespace after the value. For input in that form both
// directions are byte-for-byte what encoding/json does; any other
// input goes through encoding/json.

// plainByte marks the bytes json.Marshal copies into a string as they
// are: printable ASCII except the quote, the backslash and the three
// HTML-sensitive characters.
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < 0x7f; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// encodeBufs holds the scratch buffers MarshalJSON writes into (up to
// 1 MB each); the bytes it returns are an exact-size copy, as
// json.Marshal's are.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// The plain form's field names, in the order json.Marshal writes them.
var (
	problemFields  = []string{"app", "topology"}
	appFields      = []string{"name", "cores", "edges"}
	edgeFields     = []string{"from", "to", "bw"}
	topologyFields = []string{"kind", "w", "h", "link_bw"}
)

// plainDecoder reads the plain form; ok turns false at the first byte
// outside it.
type plainDecoder struct {
	b  []byte
	i  int
	ok bool
}

func (d *plainDecoder) ws() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\t' || d.b[d.i] == '\n' || d.b[d.i] == '\r') {
		d.i++
	}
}

// next skips whitespace and consumes c if it comes next.
func (d *plainDecoder) next(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *plainDecoder) expect(c byte) { d.ok = d.ok && d.next(c) }

// raw reads a plain string and returns its bytes, quotes stripped.
func (d *plainDecoder) raw() []byte {
	d.expect('"')
	if !d.ok {
		return nil
	}
	start := d.i
	for d.i < len(d.b) && plainByte[d.b[d.i]] {
		d.i++
	}
	if d.i == len(d.b) || d.b[d.i] != '"' {
		d.ok = false
		return nil
	}
	d.i++
	return d.b[start : d.i-1]
}

func (d *plainDecoder) str() string { return string(d.raw()) }

// number reads a JSON number literal; integer reports that it has no
// fraction and no exponent.
func (d *plainDecoder) number() (lit []byte, integer bool) {
	d.ws()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	digits := func() int {
		n := 0
		for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
			d.i++
			n++
		}
		return n
	}
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
	} else if digits() == 0 {
		d.ok = false
	}
	integer = true
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		integer = false
		if digits() == 0 {
			d.ok = false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		integer = false
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if digits() == 0 {
			d.ok = false
		}
	}
	return d.b[start:d.i], integer
}

func (d *plainDecoder) int() int {
	lit, integer := d.number()
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if !d.ok || !integer || err != nil {
		d.ok = false
	}
	return int(n)
}

func (d *plainDecoder) float() float64 {
	lit, _ := d.number()
	f, err := strconv.ParseFloat(string(lit), 64)
	if !d.ok || err != nil {
		d.ok = false
	}
	return f
}

// object reads an object whose keys are among fields, each at most
// once, handing each value to field with its key's index.
func (d *plainDecoder) object(fields []string, field func(k int)) {
	d.expect('{')
	if !d.ok || d.next('}') {
		return
	}
	var seen uint
	for d.ok {
		key := d.raw()
		k := 0
		for k < len(fields) && string(key) != fields[k] {
			k++
		}
		if k == len(fields) || seen&(1<<k) != 0 {
			d.ok = false
			return
		}
		seen |= 1 << k
		d.expect(':')
		if !d.ok {
			return
		}
		field(k)
		if !d.next(',') {
			d.expect('}')
			return
		}
	}
}

// null consumes a null literal if it comes next.
func (d *plainDecoder) null() bool {
	d.ws()
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += len("null")
		return true
	}
	return false
}

// array reads an array, handing each element to elem.
func (d *plainDecoder) array(elem func()) {
	d.expect('[')
	if !d.ok || d.next(']') {
		return
	}
	for d.ok {
		elem()
		if !d.next(',') {
			d.expect(']')
			return
		}
	}
}

// readPlainProblem reads data in the plain form into what json.Unmarshal
// would decode from it; ok is false when data is not in that form.
func readPlainProblem(data []byte) (in jsonProblem, ok bool) {
	d := plainDecoder{b: data, ok: true}
	app, topo := &in.App, &in.Topology
	d.object(problemFields, func(k int) {
		if k == 1 {
			d.object(topologyFields, func(k int) {
				switch k {
				case 0:
					topo.Kind = d.str()
				case 1:
					topo.W = d.int()
				case 2:
					topo.H = d.int()
				case 3:
					topo.BW = d.float()
				}
			})
			return
		}
		d.object(appFields, func(k int) {
			switch k {
			case 0:
				app.Name = d.str()
			case 1:
				if d.null() {
					return
				}
				app.Cores = []string{}
				d.array(func() { app.Cores = append(app.Cores, d.str()) })
			case 2:
				if d.null() {
					return
				}
				app.Edges = []graph.WireEdge{}
				d.array(func() {
					var e graph.WireEdge
					d.object(edgeFields, func(k int) {
						switch k {
						case 0:
							e.From = d.str()
						case 1:
							e.To = d.str()
						case 2:
							e.BW = d.float()
						}
					})
					app.Edges = append(app.Edges, e)
				})
			}
		})
	})
	d.ws()
	return in, d.ok && d.i == len(d.b)
}

// plainEncoder appends json.Marshal's encoding of a jsonProblem; ok
// turns false at the first value it cannot write that way.
type plainEncoder struct {
	b  []byte
	ok bool
}

func (e *plainEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			e.ok = false
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// float writes f as json.Marshal does: the shortest 'f' form, or the
// 'e' form below 1e-6 and from 1e21 up with a one-digit negative
// exponent written without its leading zero.
func (e *plainEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// appendProblem appends in as json.Marshal encodes it; ok is false
// when a value needs what the plain form leaves out.
func appendProblem(dst []byte, in *jsonProblem) (b []byte, ok bool) {
	e := plainEncoder{b: dst, ok: true}
	app := &in.App
	e.b = append(e.b, `{"app":{"name":`...)
	e.str(app.Name)
	e.b = append(e.b, `,"cores":`...)
	if app.Cores == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, c := range app.Cores {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.str(c)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"edges":`...)
	if app.Edges == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range app.Edges {
			ed := &app.Edges[i]
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"from":`...)
			e.str(ed.From)
			e.b = append(e.b, `,"to":`...)
			e.str(ed.To)
			e.b = append(e.b, `,"bw":`...)
			e.float(ed.BW)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	topo := &in.Topology
	e.b = append(e.b, `},"topology":{"kind":`...)
	e.str(topo.Kind)
	e.b = append(e.b, `,"w":`...)
	e.b = strconv.AppendInt(e.b, int64(topo.W), 10)
	e.b = append(e.b, `,"h":`...)
	e.b = strconv.AppendInt(e.b, int64(topo.H), 10)
	e.b = append(e.b, `,"link_bw":`...)
	e.float(topo.BW)
	e.b = append(e.b, "}}"...)
	return e.b, e.ok
}
