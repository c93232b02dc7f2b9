package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/nocmap"
	"repro/nocmap/store"
)

// SolveSpec is the wire form of a solve's options: the subset of
// nocmap's functional options that travels as JSON. The zero value asks
// for the default algorithm ("nmap-single") with sequential refinement.
type SolveSpec struct {
	// Algorithm is the registry name to run ("" means "nmap-single").
	Algorithm string `json:"algorithm,omitempty"`
	// Workers sets solver parallelism exactly like nocmap.WithWorkers.
	// It does not participate in the result-cache key: every setting
	// produces bit-identical results.
	Workers int `json:"workers,omitempty"`
	// Split selects the traffic-splitting regime for "nmap-split":
	// "all-paths" (default) or "min-paths".
	Split string `json:"split,omitempty"`
	// BandwidthCap, when positive, overrides every link's bandwidth
	// (MB/s) for this solve.
	BandwidthCap float64 `json:"bandwidth_cap,omitempty"`
	// FastQueue opts the "pbb" baseline into its faster bounded queue.
	FastQueue bool `json:"fast_queue,omitempty"`
	// MaxQueue/MaxExpand bound the "pbb" search; zero keeps defaults.
	MaxQueue  int `json:"max_queue,omitempty"`
	MaxExpand int `json:"max_expand,omitempty"`
	// Durability selects the submission's acknowledgment class: "" or
	// DurabilityAsync (the default) acks as soon as the job is accepted;
	// DurabilityReplicated holds the ack until the job's submit record
	// is acknowledged by at least one replication follower (bounded
	// wait — on timeout the ack degrades to async and says so in the
	// X-Nocmap-Durability response header). Like Workers it never
	// participates in the result-cache key: durability changes when the
	// ack returns, never what the solve computes.
	Durability string `json:"durability,omitempty"`
}

// Split spec values.
const (
	SplitAllPaths = "all-paths"
	SplitMinPaths = "min-paths"
)

// Durability classes a submission may request, plus the degraded
// outcome the X-Nocmap-Durability header (and the submit response's
// JobStatus.Durability) reports when a replicated ack timed out.
const (
	DurabilityAsync      = "async"
	DurabilityReplicated = "replicated"
	// DurabilityDegraded is an outcome, not a request value: the
	// submission asked for replicated durability but no follower acked
	// within the bounded wait, so the ack fell back to async.
	DurabilityDegraded = "async-degraded"
)

// normalize fills defaults so equivalent specs hash identically.
func (s SolveSpec) normalize() (SolveSpec, error) {
	if s.Algorithm == "" {
		s.Algorithm = "nmap-single"
	}
	switch s.Split {
	case "", SplitAllPaths:
		s.Split = SplitAllPaths
	case SplitMinPaths:
	default:
		return s, fmt.Errorf("unknown split policy %q (want %q or %q)",
			s.Split, SplitAllPaths, SplitMinPaths)
	}
	if s.BandwidthCap < 0 {
		return s, fmt.Errorf("negative bandwidth cap %g", s.BandwidthCap)
	}
	switch s.Durability {
	case "", DurabilityAsync, DurabilityReplicated:
	default:
		return s, fmt.Errorf("unknown durability class %q (want %q or %q)",
			s.Durability, DurabilityAsync, DurabilityReplicated)
	}
	known := false
	for _, name := range nocmap.Algorithms() {
		if name == s.Algorithm {
			known = true
			break
		}
	}
	if !known {
		return s, fmt.Errorf("%w %q (have %s)", nocmap.ErrUnknownAlgorithm,
			s.Algorithm, strings.Join(nocmap.Algorithms(), ", "))
	}
	return s, nil
}

// Options translates the spec to the equivalent nocmap functional
// options — the one mapping between the wire form and the library,
// shared by the server's workers and local callers (cmd/nmap uses it
// so its -remote and in-process paths cannot drift).
func (s SolveSpec) Options() []nocmap.Option {
	opts := []nocmap.Option{
		nocmap.WithAlgorithm(s.Algorithm),
		nocmap.WithWorkers(s.Workers),
	}
	if s.Split == SplitMinPaths {
		opts = append(opts, nocmap.WithSplitPolicy(nocmap.SplitMinPaths))
	}
	if s.BandwidthCap > 0 {
		opts = append(opts, nocmap.WithBandwidthCap(s.BandwidthCap))
	}
	if s.FastQueue {
		opts = append(opts, nocmap.WithFastQueue(true))
	}
	if s.MaxQueue > 0 || s.MaxExpand > 0 {
		opts = append(opts, nocmap.WithPBBBudget(s.MaxQueue, s.MaxExpand))
	}
	return opts
}

// SubmitRequest is the body of POST /v1/jobs and POST /v1/solve: a
// serialized nocmap.Problem plus solve options.
type SubmitRequest struct {
	Problem json.RawMessage `json:"problem"`
	Options SolveSpec       `json:"options"`
}

// SubmitError is a rejected submission: the HTTP status to answer with
// plus the typed payload. ParseSubmit returns it; the shard router
// relays it verbatim so edge validation and backend validation agree.
type SubmitError struct {
	Status  int
	Payload *ErrorPayload
}

// Error renders the payload.
func (e *SubmitError) Error() string { return e.Payload.Error() }

// ParseSubmit decodes and validates a submission body into the parsed
// problem, its canonical JSON (the re-marshaled parse, so formatting
// differences wash out of every derived hash) and the normalized solve
// spec. It never panics on hostile input — every malformed body maps to
// a typed SubmitError. Both the server's handlers and the shard router
// route through it, which is what guarantees they hash identically.
func ParseSubmit(body []byte) (*nocmap.Problem, []byte, SolveSpec, *SubmitError) {
	return parseSubmit(body, true)
}

// parseSubmit is ParseSubmit; plain reads a body in the plain form (see
// decode.go) without encoding/json, and tests turn it off to compare.
func parseSubmit(body []byte, plain bool) (*nocmap.Problem, []byte, SolveSpec, *SubmitError) {
	req, ok := SubmitRequest{}, false
	if plain {
		req, ok = readPlainSubmit(body)
	}
	if !ok {
		req = SubmitRequest{}
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, nil, SolveSpec{}, &SubmitError{Status: 400,
				Payload: &ErrorPayload{Code: CodeBadRequest, Message: "parsing request body: " + err.Error()}}
		}
	}
	if len(req.Problem) == 0 {
		return nil, nil, SolveSpec{}, &SubmitError{Status: 400,
			Payload: &ErrorPayload{Code: CodeBadRequest, Message: `missing "problem"`}}
	}
	// req.Problem is one JSON value the body read already validated, so
	// it goes to the problem decoder without a second validity scan.
	var p nocmap.Problem
	if err := p.UnmarshalJSON(req.Problem); err != nil {
		// Problem construction failed: distinguish malformed JSON from a
		// well-formed but invalid/infeasible problem via the typed
		// sentinels (422 carries the classification).
		pay := errorPayload(err)
		status := 422
		if pay.Code == CodeInternal {
			pay.Code = CodeBadRequest
			status = 400
		}
		pay.Message = "invalid problem: " + pay.Message
		return nil, nil, SolveSpec{}, &SubmitError{Status: status, Payload: pay}
	}
	spec, err := req.Options.normalize()
	if err != nil {
		return nil, nil, SolveSpec{}, &SubmitError{Status: 422, Payload: errorPayloadForSpec(err)}
	}
	canon, err := p.MarshalJSON()
	if err != nil {
		return nil, nil, SolveSpec{}, &SubmitError{Status: 500,
			Payload: &ErrorPayload{Code: CodeInternal, Message: err.Error()}}
	}
	return &p, canon, spec, nil
}

// Profile names a service tuning preset.
type Profile string

const (
	// ProfileRepro (the default) runs every solve exactly as requested:
	// results are bit-identical to the paper-reproduction defaults.
	ProfileRepro Profile = "repro"
	// ProfileFast is the service preset for non-reproduction traffic: a
	// submission that does not pin Workers gets full parallelism
	// (Workers=-1), and every PBB solve uses the FastQueue engine — ~4x
	// faster, same optimum, but not bit-compatible with the historical
	// queue's tie-breaking. FastQueue is forced, not defaulted: the wire
	// form cannot distinguish an explicit "fast_queue": false from an
	// unset one, so a fast instance never runs the legacy queue. Run a
	// repro-profile instance when byte-identical reproduction output
	// matters.
	ProfileFast Profile = "fast"
)

// Valid reports whether the profile is a known preset ("" is repro).
func (p Profile) Valid() bool {
	return p == "" || p == ProfileRepro || p == ProfileFast
}

// Apply folds the profile's defaults into a normalized spec. The
// profiled spec is what the server hashes, runs and persists, so one
// server's cache and coalescing stay internally consistent — and what
// a shard router fronting same-profile backends hashes for routing.
func (p Profile) Apply(s SolveSpec) SolveSpec {
	if p != ProfileFast {
		return s
	}
	if s.Workers == 0 {
		s.Workers = -1
	}
	s.FastQueue = true
	return s
}

// Info is the GET /v1/info response: the identity facts a shard router
// needs to route by (the job-ID prefix) plus the service preset.
type Info struct {
	// IDPrefix is prepended to every job ID this instance mints; a shard
	// router maps an ID back to its backend by it.
	IDPrefix string `json:"id_prefix"`
	// Profile is the service preset ("repro" or "fast").
	Profile Profile `json:"profile"`
	// Durable reports whether a persistent job store backs this
	// instance (jobs and results survive a restart).
	Durable bool `json:"durable"`
	// ReplicaTargets is the replication target set (the instance's first
	// R ring successors), sorted; empty when replication is off.
	ReplicaTargets []string `json:"replica_targets,omitempty"`
}

// Job states, in lifecycle order.
const (
	StateQueued    = store.StateQueued
	StateRunning   = store.StateRunning
	StateDone      = store.StateDone
	StateFailed    = store.StateFailed
	StateCancelled = store.StateCancelled
)

// JobStatus is the wire form of a job: its identity, where it is in the
// lifecycle and — once finished — the marshaled nocmap.Result or the
// typed error. A cancelled job that was already solving carries the
// partial result (Result.Partial set) the solver salvaged.
type JobStatus struct {
	ID string `json:"id"`
	// Key is the canonical problem+options hash the result cache and
	// request coalescing key on.
	Key   string `json:"key"`
	State string `json:"state"`
	// CacheHit marks a submission served from the result cache without
	// re-solving.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Coalesced marks a submission attached to an identical in-flight
	// job; it shares that job's computation and outcome.
	Coalesced bool            `json:"coalesced,omitempty"`
	Error     *ErrorPayload   `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	// Durability is set only on the response to a submission that
	// requested durability=replicated: DurabilityReplicated when a
	// follower acknowledged the record before the ack returned,
	// DurabilityDegraded when the bounded wait timed out (the
	// X-Nocmap-Durability header carries the same value). Job status
	// reads never include it, so replayed statuses stay byte-identical.
	Durability string `json:"durability,omitempty"`
}

// ErrorPayload is the typed error shape every non-2xx response (and
// every failed job) carries: a stable machine-matchable code plus a
// human-readable message.
type ErrorPayload struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error so payloads surface directly from the client.
func (e *ErrorPayload) Error() string { return e.Code + ": " + e.Message }

// Error codes.
const (
	CodeBadRequest       = "bad_request"
	CodeInvalidProblem   = "invalid_problem"
	CodeInfeasible       = "infeasible_bandwidth"
	CodeUnknownAlgorithm = "unknown_algorithm"
	CodeNotFound         = "not_found"
	CodeQueueFull        = "queue_full"
	CodeCancelled        = "cancelled"
	CodeShuttingDown     = "shutting_down"
	CodeInternal         = "internal"
	// CodeBackendUnavailable is a shard router's answer when no backend
	// could serve the request (all owners down, or a job ID no reachable
	// backend recognizes). The client retries it once transparently.
	CodeBackendUnavailable = "backend_unavailable"
)

// errorPayload classifies an error into the wire taxonomy using the
// typed sentinels the nocmap package exports.
func errorPayload(err error) *ErrorPayload {
	code := CodeInternal
	switch {
	case errors.Is(err, nocmap.ErrInfeasibleBandwidth):
		code = CodeInfeasible
	case errors.Is(err, nocmap.ErrUnknownAlgorithm):
		code = CodeUnknownAlgorithm
	case errors.Is(err, nocmap.ErrNilInput),
		errors.Is(err, nocmap.ErrEmptyApp),
		errors.Is(err, nocmap.ErrTooManyCores),
		errors.Is(err, nocmap.ErrDuplicateCore),
		errors.Is(err, nocmap.ErrInvalidDimensions),
		errors.Is(err, nocmap.ErrInvalidBandwidth):
		code = CodeInvalidProblem
	}
	return &ErrorPayload{Code: code, Message: err.Error()}
}

// JobEvent is one server-sent progress event: the solver's
// nocmap.Event for the named job.
type JobEvent struct {
	JobID     string  `json:"job_id"`
	Algorithm string  `json:"algorithm"`
	Phase     string  `json:"phase"`
	Step      int     `json:"step"`
	Total     int     `json:"total"`
	Best      float64 `json:"best"`
}

// Stats is the server's counter snapshot (GET /v1/stats).
type Stats struct {
	Submitted uint64 `json:"submitted"`
	Solved    uint64 `json:"solved"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	CacheHits uint64 `json:"cache_hits"`
	Coalesced uint64 `json:"coalesced"`
	// Recovered counts jobs that a restart found queued or running in
	// the job store and re-enqueued (or re-answered from the restored
	// cache) instead of losing.
	Recovered uint64 `json:"recovered"`
	// Restored counts terminal job statuses replayed from the job store
	// at boot: their results serve byte-identical to before the restart.
	Restored uint64 `json:"restored"`
	// StoreErrors counts job-store writes that failed; the server keeps
	// serving (durability is then best-effort) but the counter makes the
	// degradation observable.
	StoreErrors uint64 `json:"store_errors"`
	// StorePending is the write-behind depth of the async persistence
	// path at the snapshot instant: store ops enqueued but not yet
	// fsynced (the outbox plus the batch the flusher is writing). This
	// is the window a crash right now would lose for plain
	// (non-replicated) durability.
	StorePending int `json:"store_pending,omitempty"`
	// Compactions / CompactRunning / StoreSegments surface the backing
	// FileStore's WAL compaction machinery (found by unwrapping the
	// store chain): snapshots published since boot, whether a pass is
	// folding right now, and the WAL segment files on disk. Only set
	// when the server persists to a file store.
	Compactions    uint64 `json:"compactions,omitempty"`
	CompactRunning bool   `json:"compact_running,omitempty"`
	StoreSegments  int    `json:"segments,omitempty"`
	// StoreBatches counts the write-behind batches the flusher has
	// settled, one Store.ApplyOps call each (one fsync on a file store,
	// or a failed batch and its op-by-op retry). StoreWALBytes counts
	// the bytes the backing FileStore appended to its WAL (only set
	// with a file store). Both only grow, so their deltas over a window
	// divided by the jobs finished in it give batches and WAL bytes per
	// job.
	StoreBatches  uint64 `json:"store_batches"`
	StoreWALBytes uint64 `json:"store_wal_bytes,omitempty"`
	// Replicated counts record pushes (and deletion pushes) the
	// replication followers acknowledged, summed over the target set;
	// ReplicationPending is how many are queued or in flight. Pending
	// draining to zero means every follower has everything this
	// instance knows.
	Replicated         uint64 `json:"replicated"`
	ReplicationPending int    `json:"replication_pending"`
	// ReplicationLag sums, over the replication target set, how far each
	// follower's acked watermark trails this instance's terminal seq —
	// the at-risk window of terminal outcomes not yet durable on that
	// follower. Zero means every follower has acknowledged every
	// terminal transition.
	ReplicationLag uint64 `json:"replication_lag"`
	// ReplicationStalls counts stall episodes: a replication stream past
	// the consecutive-failure threshold (also flips /healthz to
	// degraded with a replication_stalled detail while it lasts).
	ReplicationStalls uint64 `json:"replication_stalls"`
	// ReplicationStalled reports whether any stream is stalled right now.
	ReplicationStalled bool `json:"replication_stalled,omitempty"`
	// ReplicaTargets is the per-target replication breakdown: acked
	// count, watermark, lag and stall state per follower.
	ReplicaTargets []ReplicaTargetStats `json:"replica_targets,omitempty"`
	// DurableAcks counts durability=replicated submissions whose ack
	// was held and confirmed by a follower; DurableAcksDegraded counts
	// those that timed out and degraded to an async ack.
	DurableAcks         uint64 `json:"durable_acks"`
	DurableAcksDegraded uint64 `json:"durable_acks_degraded"`
	// Replicas is how many other backends' records this instance holds
	// in its replica namespace (the follower half of ring replication).
	Replicas int `json:"replicas"`
	// Promoted counts replica records adopted as local jobs after a
	// primary failure (POST /v1/promote).
	Promoted uint64 `json:"promoted"`
	// Reconciled counts records adopted through anti-entropy or
	// key-range migration (POST /v1/reconcile).
	Reconciled uint64 `json:"reconciled"`
	QueueLen   int    `json:"queue_len"`
	Running    int    `json:"running"`
	CacheLen   int    `json:"cache_len"`
}

// JobKey builds the canonical cache/coalescing/shard-routing key: a
// hash over the canonical problem JSON (the re-marshaled parsed
// problem, so formatting and field-order differences wash out) and the
// normalized options minus Workers and Durability (neither changes
// results — one picks parallelism, the other picks when the ack
// returns). The shard router hashes the same key, which is what keeps
// each backend's result cache hot for its slice of the keyspace.
func JobKey(problemJSON []byte, spec SolveSpec) string {
	hashed := spec
	hashed.Workers = 0
	hashed.Durability = ""
	optJSON, _ := marshalSpec(hashed)
	h := sha256.New()
	h.Write(problemJSON)
	h.Write([]byte{0})
	h.Write(optJSON)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
