package store

import (
	"encoding/json"
	"strconv"
)

// The store's lines are encoded by hand so a result — the bulk
// of every line — is copied, not run through encoding/json's
// validate-and-compact step a second time. The output is byte-identical
// to json.Marshal: a field the fast path cannot prove json.Marshal
// would copy through unchanged (a string needing an escape, a raw
// value with whitespace or HTML-sensitive bytes, an empty raw value)
// sends the whole value back through json.Marshal.

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

// rawSpecial marks the bytes json.Marshal's compact-and-escape step
// may rewrite inside a raw value: whitespace, the HTML-sensitive <, >
// and &, and 0xE2, the lead byte of U+2028 and U+2029.
var rawSpecial = func() (t [256]bool) {
	for _, b := range []byte(" \t\n\r<>&\xe2") {
		t[b] = true
	}
	return t
}()

// rawPlain reports whether json.Marshal's compact-and-escape step would
// leave the non-empty raw JSON value m untouched. It does not check
// that m is valid JSON.
func rawPlain(m []byte) bool {
	for i := 0; i < len(m); i++ {
		if !rawSpecial[m[i]] {
			continue
		}
		// Only U+2028/U+2029 (E2 80 A8/A9) are rewritten, not every
		// character that starts with 0xE2.
		if m[i] != 0xE2 || (i+2 < len(m) && m[i+1] == 0x80 && m[i+2]&^1 == 0xA8) {
			return false
		}
	}
	return true
}

// recordEncoder appends the store's lines. ok turns false at the first
// field the fast path cannot encode; the caller then falls back to
// json.Marshal. trusted skips json.Valid on raw fields, for ops read
// out of a memState: every raw value there passed json.Valid on the
// append path or was produced by encoding/json's decoder on replay.
type recordEncoder struct {
	b       []byte
	ok      bool
	trusted bool
}

func (e *recordEncoder) str(s string) {
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

func (e *recordEncoder) raw(m json.RawMessage) {
	if !rawPlain(m) || (!e.trusted && !json.Valid(m)) {
		e.ok = false
		return
	}
	e.b = append(e.b, m...)
}

// job appends r, without its result when ref is set.
func (e *recordEncoder) job(r *JobRecord, ref bool) {
	e.b = append(e.b, `{"id":`...)
	e.str(r.ID)
	if r.Key != "" {
		e.b = append(e.b, `,"key":`...)
		e.str(r.Key)
	}
	if len(r.Problem) > 0 {
		e.b = append(e.b, `,"problem":`...)
		e.raw(r.Problem)
	}
	if len(r.Spec) > 0 {
		e.b = append(e.b, `,"spec":`...)
		e.raw(r.Spec)
	}
	e.b = append(e.b, `,"state":`...)
	e.str(r.State)
	if r.CacheHit {
		e.b = append(e.b, `,"cache_hit":true`...)
	}
	if r.Coalesced {
		e.b = append(e.b, `,"coalesced":true`...)
	}
	if len(r.Result) > 0 && !ref {
		e.b = append(e.b, `,"result":`...)
		e.raw(r.Result)
	}
	if len(r.Error) > 0 {
		e.b = append(e.b, `,"error":`...)
		e.raw(r.Error)
	}
	if r.Seq != 0 {
		e.b = append(e.b, `,"seq":`...)
		e.b = strconv.AppendUint(e.b, r.Seq, 10)
	}
	if r.Minted != 0 {
		e.b = append(e.b, `,"minted":`...)
		e.b = strconv.AppendUint(e.b, r.Minted, 10)
	}
	if r.Origin != "" {
		e.b = append(e.b, `,"origin":`...)
		e.str(r.Origin)
	}
	e.b = append(e.b, '}')
}

// appendWALOp appends l as json.Marshal encodes it. Unless trusted
// (see recordEncoder), raw fields must pass json.Valid: an op replay
// cannot decode never reaches the WAL. A reference line's result is
// not written, so it is not validated either.
func appendWALOp(dst []byte, l *line, trusted bool) ([]byte, error) {
	e := recordEncoder{b: dst, ok: true, trusted: trusted}
	op := &l.Op
	e.b = append(e.b, `{"op":`...)
	e.str(string(op.Kind))
	if op.Rec != nil {
		e.b = append(e.b, `,"job":`...)
		e.job(op.Rec, l.Ref)
	}
	if op.ID != "" {
		e.b = append(e.b, `,"id":`...)
		e.str(op.ID)
	}
	if op.Key != "" {
		e.b = append(e.b, `,"key":`...)
		e.str(op.Key)
	}
	if len(op.Result) > 0 && !l.Ref {
		e.b = append(e.b, `,"result":`...)
		e.raw(op.Result)
	}
	if l.Ref {
		e.b = append(e.b, `,"ref":true`...)
	}
	if l.Own {
		e.b = append(e.b, `,"own":true`...)
	}
	e.b = append(e.b, '}')
	if e.ok {
		return e.b, nil
	}
	if l.Ref {
		c := *l
		if c.Rec != nil {
			r := *c.Rec
			r.Result = nil
			c.Rec = &r
		}
		c.Result = nil
		l = &c
	}
	data, err := json.Marshal(l)
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}
