package server

import "repro/nocmap"

// ParseSubmitJSON is ParseSubmit with the plain-form reader off: every
// body goes through json.Unmarshal, the reference the fast path is
// compared against.
func ParseSubmitJSON(body []byte) (*nocmap.Problem, []byte, SolveSpec, *SubmitError) {
	return parseSubmit(body, false)
}

// ReadsPlain reports whether ParseSubmit reads body without
// encoding/json.
func ReadsPlain(body []byte) bool {
	_, ok := readPlainSubmit(body)
	return ok
}

// MarshalSpec is the spec encoder JobKey and the store records use.
var MarshalSpec = marshalSpec
