package server

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"

	"repro/nocmap/store"
)

// Every result the server holds is compact, valid JSON: its own solves
// marshal them so, and bytes that arrive from outside the process — a
// peer's replicate or reconcile batch, the store at replay — go through
// compactJSON once on the way in. A JobStatus can therefore copy its
// result verbatim instead of re-validating and re-compacting it on
// every response, and still match what encoding/json's Encoder would
// write byte for byte.

// compactJSON returns raw in its compact form, what an Encoder writes
// for it with HTML escaping off. raw must come out of a JSON decoder or
// the server's own encoding; anything json.Compact rejects is dropped.
func compactJSON(raw json.RawMessage) json.RawMessage {
	if len(raw) == 0 || bytes.IndexAny(raw, " \t\n\r") < 0 {
		return raw
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil
	}
	return buf.Bytes()
}

// compactRecords compacts the results of records entering the process.
func compactRecords(recs []store.JobRecord) {
	for i := range recs {
		recs[i].Result = compactJSON(recs[i].Result)
	}
}

// compactCache compacts the results of cache entries entering the
// process.
func compactCache(entries []store.CacheEntry) {
	for i := range entries {
		entries[i].Result = compactJSON(entries[i].Result)
	}
}

// plainByte marks the bytes an Encoder with HTML escaping off copies
// into a string as they are: printable ASCII except '"' and '\'.
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < 0x7f; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJobStatus appends st as writeJSON's Encoder would write it,
// trailing newline included, copying the result verbatim (see
// compactJSON). A string that needs escaping sends the whole status
// through the Encoder instead.
func appendJobStatus(dst []byte, st *JobStatus) []byte {
	if !plainString(st.ID) || !plainString(st.Key) || !plainString(st.State) ||
		!plainString(st.Durability) ||
		(st.Error != nil && (!plainString(st.Error.Code) || !plainString(st.Error.Message))) {
		buf := bytes.NewBuffer(dst)
		enc := json.NewEncoder(buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(*st); err != nil {
			return dst
		}
		return buf.Bytes()
	}
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, st.ID)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, st.Key)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, st.State)
	if st.CacheHit {
		dst = append(dst, `,"cache_hit":true`...)
	}
	if st.Coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	if st.Error != nil {
		dst = append(dst, `,"error":{"code":`...)
		dst = appendString(dst, st.Error.Code)
		dst = append(dst, `,"message":`...)
		dst = appendString(dst, st.Error.Message)
		dst = append(dst, '}')
	}
	if len(st.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, st.Result...)
	}
	if st.Durability != "" {
		dst = append(dst, `,"durability":`...)
		dst = appendString(dst, st.Durability)
	}
	return append(dst, "}\n"...)
}

// marshalSpec returns json.Marshal's encoding of s. A bandwidth cap, or
// a string json.Marshal would escape (it also escapes <, > and &),
// sends the spec through json.Marshal.
func marshalSpec(s SolveSpec) ([]byte, error) {
	plain := func(str string) bool { return plainString(str) && !strings.ContainsAny(str, "<>&") }
	if s.BandwidthCap != 0 || !plain(s.Algorithm) || !plain(s.Split) || !plain(s.Durability) {
		return json.Marshal(s)
	}
	b := make([]byte, 0, 96)
	b = append(b, '{')
	field := func(name string) {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(b, name...)
	}
	if s.Algorithm != "" {
		field(`"algorithm":`)
		b = appendString(b, s.Algorithm)
	}
	if s.Workers != 0 {
		field(`"workers":`)
		b = strconv.AppendInt(b, int64(s.Workers), 10)
	}
	if s.Split != "" {
		field(`"split":`)
		b = appendString(b, s.Split)
	}
	if s.FastQueue {
		field(`"fast_queue":true`)
	}
	if s.MaxQueue != 0 {
		field(`"max_queue":`)
		b = strconv.AppendInt(b, int64(s.MaxQueue), 10)
	}
	if s.MaxExpand != 0 {
		field(`"max_expand":`)
		b = strconv.AppendInt(b, int64(s.MaxExpand), 10)
	}
	if s.Durability != "" {
		field(`"durability":`)
		b = appendString(b, s.Durability)
	}
	return append(b, '}'), nil
}
