package server

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// ParseSubmit reads a body in the plain form without encoding/json:
// one top-level object whose keys are "problem" and "options", each at
// most once; the problem any JSON value whose strings hold only
// plainByte bytes, nested at most maxSkipDepth deep; the options an
// object of SolveSpec's exact field names, each at most once, with
// strings of plainByte bytes, integer literals that fit int, numbers
// strconv.ParseFloat accepts, true or false; and nothing but
// whitespace after the object. The problem span is validated but not
// decoded: the problem decoder reads it exactly as it would read the
// json.RawMessage json.Unmarshal fills. Any other body takes
// json.Unmarshal, so each rejection keeps its status and message.

// maxSkipDepth bounds the nesting the plain form accepts inside the
// problem; a real problem nests four deep.
const maxSkipDepth = 32

// The field names of SubmitRequest and SolveSpec, as json.Marshal
// writes them.
var (
	submitFields = []string{"problem", "options"}
	specFields   = []string{"algorithm", "workers", "split", "bandwidth_cap",
		"fast_queue", "max_queue", "max_expand", "durability"}
)

// submitScanner reads the plain form; ok turns false at the first byte
// outside it.
type submitScanner struct {
	b  []byte
	i  int
	ok bool
}

func (s *submitScanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// next skips whitespace and consumes c if it comes next.
func (s *submitScanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *submitScanner) expect(c byte) { s.ok = s.ok && s.next(c) }

// literal consumes lit if it comes next.
func (s *submitScanner) literal(lit string) bool {
	s.ws()
	if bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		s.i += len(lit)
		return true
	}
	return false
}

// raw reads a plain string and returns its bytes, quotes stripped.
func (s *submitScanner) raw() []byte {
	s.expect('"')
	if !s.ok {
		return nil
	}
	start := s.i
	for s.i < len(s.b) && plainByte[s.b[s.i]] {
		s.i++
	}
	if s.i == len(s.b) || s.b[s.i] != '"' {
		s.ok = false
		return nil
	}
	s.i++
	return s.b[start : s.i-1]
}

func (s *submitScanner) digits() int {
	n := 0
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
		n++
	}
	return n
}

// number reads a JSON number literal; integer reports that it has no
// fraction and no exponent.
func (s *submitScanner) number() (lit []byte, integer bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	if s.i < len(s.b) && s.b[s.i] == '0' {
		s.i++
	} else if s.digits() == 0 {
		s.ok = false
	}
	integer = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		integer = false
		if s.digits() == 0 {
			s.ok = false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		integer = false
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			s.ok = false
		}
	}
	return s.b[start:s.i], integer
}

// skip reads one JSON value of the plain form without decoding it.
func (s *submitScanner) skip(depth int) {
	s.ws()
	if s.i == len(s.b) || depth > maxSkipDepth {
		s.ok = false
		return
	}
	switch s.b[s.i] {
	case '{':
		s.object(nil, func(int) { s.skip(depth + 1) })
	case '[':
		s.i++
		if s.next(']') {
			return
		}
		for s.ok {
			s.skip(depth + 1)
			if !s.next(',') {
				s.expect(']')
				return
			}
		}
	case '"':
		s.raw()
	default:
		if !s.literal("true") && !s.literal("false") && !s.literal("null") {
			s.number()
		}
	}
}

// object reads an object whose keys are among fields, each at most
// once, handing each value to field with its key's index. With fields
// nil it takes any keys and hands each value over with index 0.
func (s *submitScanner) object(fields []string, field func(k int)) {
	s.expect('{')
	if !s.ok || s.next('}') {
		return
	}
	var seen uint
	for s.ok {
		key := s.raw()
		k := 0
		for fields != nil && k < len(fields) && string(key) != fields[k] {
			k++
		}
		if fields != nil && (k == len(fields) || seen&(1<<k) != 0) {
			s.ok = false
			return
		}
		seen |= 1 << k
		s.expect(':')
		if !s.ok {
			return
		}
		field(k)
		if !s.next(',') {
			s.expect('}')
			return
		}
	}
}

func (s *submitScanner) str() string { return string(s.raw()) }

func (s *submitScanner) int() int {
	lit, integer := s.number()
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if !integer || err != nil {
		s.ok = false
	}
	return int(n)
}

func (s *submitScanner) float() float64 {
	lit, _ := s.number()
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.ok = false
	}
	return f
}

func (s *submitScanner) bool() bool {
	if s.literal("true") {
		return true
	}
	if !s.literal("false") {
		s.ok = false
	}
	return false
}

// readPlainSubmit reads body in the plain form into what json.Unmarshal
// would decode from it; ok is false when body is not in that form.
func readPlainSubmit(body []byte) (req SubmitRequest, ok bool) {
	s := submitScanner{b: body, ok: true}
	o := &req.Options
	s.object(submitFields, func(k int) {
		if k == 0 {
			s.ws()
			start := s.i
			s.skip(0)
			req.Problem = json.RawMessage(body[start:s.i])
			return
		}
		s.object(specFields, func(k int) {
			switch k {
			case 0:
				o.Algorithm = s.str()
			case 1:
				o.Workers = s.int()
			case 2:
				o.Split = s.str()
			case 3:
				o.BandwidthCap = s.float()
			case 4:
				o.FastQueue = s.bool()
			case 5:
				o.MaxQueue = s.int()
			case 6:
				o.MaxExpand = s.int()
			case 7:
				o.Durability = s.str()
			}
		})
	})
	s.ws()
	return req, s.ok && s.i == len(body)
}
