package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/nocmap"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             enqueue a solve; 202 + JobStatus (200 on a cache hit)
//	GET    /v1/jobs/{id}        JobStatus, result included once finished
//	GET    /v1/jobs/{id}/events SSE: "progress" JobEvents, then one "done" JobStatus
//	DELETE /v1/jobs/{id}        cancel; running solves return their partial result
//	POST   /v1/solve            enqueue and wait: 200 + final JobStatus
//	GET    /v1/algorithms       registered algorithm names
//	GET    /v1/stats            Stats counters
//	GET    /v1/info             Info: job-ID prefix, profile, durability
//	GET    /healthz             liveness
//
// plus the internal fleet endpoints ring replication and the shard
// router's control plane ride on:
//
//	POST   /v1/replicate             accept a primary's record batch (idempotent)
//	POST   /v1/promote               adopt a failed origin's replicas
//	POST   /v1/reconcile             adopt records (anti-entropy / migration)
//	GET    /v1/records               own records + cache, the transfer format
//	GET    /v1/replicas/{id}         a replicated job's status (pre-promotion)
//	GET    /v1/replication/watermark acked watermark held for one origin
//	PUT    /v1/replication/target    point replication at the target set
//
// Every error response body is {"error": ErrorPayload}.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/solve", s.handleSolveSync)
	mux.HandleFunc("POST /v1/replicate", s.handleReplicate)
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	mux.HandleFunc("POST /v1/reconcile", s.handleReconcile)
	mux.HandleFunc("GET /v1/records", s.handleRecords)
	mux.HandleFunc("GET /v1/replicas/{id}", s.handleReplicaStatus)
	mux.HandleFunc("GET /v1/replication/watermark", s.handleWatermark)
	mux.HandleFunc("PUT /v1/replication/target", s.handleReplicationTarget)
	mux.HandleFunc("GET /v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"algorithms": nocmap.Algorithms()})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Info())
	})
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz is GET /healthz. A stalled replication stream reports
// status "degraded" with a replication_stalled detail — still HTTP 200:
// the process is alive and serving (the fleet prober must not count a
// stalled follower link as a death), but monitoring can see the
// durability degradation instead of the stream retrying forever
// silently.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.rep.anyStalled() {
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"detail": "replication_stalled",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// writeJSON writes a JSON body with the given status. A JobStatus goes
// through appendJobStatus, which writes the same bytes without
// re-compacting the result.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if st, ok := v.(JobStatus); ok {
		buf := statusBufs.Get().(*[]byte)
		*buf = appendJobStatus((*buf)[:0], &st)
		w.Write(*buf)
		if cap(*buf) <= 1<<20 {
			statusBufs.Put(buf)
		}
		return
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// statusBufs recycles JobStatus encode buffers across responses.
var statusBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeError writes the typed error envelope.
func writeError(w http.ResponseWriter, status int, pay *ErrorPayload) {
	writeJSON(w, status, map[string]*ErrorPayload{"error": pay})
}

// MaxBodyBytes caps a submission body (64MB — orders of magnitude above
// any real problem). The parse layer already bounds what decoded fields
// may allocate (nocmap.MaxWireNodes); this bounds the buffered body
// itself, so an arbitrarily large POST cannot exhaust memory before the
// parser ever runs. The shard router applies the same cap at the edge.
const MaxBodyBytes = 64 << 20

// ReadSubmitBody drains a submission body under the MaxBodyBytes cap,
// mapping an oversized body to a typed 413. The server's handlers and
// the shard router share it so the edge and the backend can never
// disagree on the cap or its error shape.
func ReadSubmitBody(w http.ResponseWriter, r *http.Request) ([]byte, *SubmitError) {
	// A declared Content-Length sizes the buffer once, up to 1 MiB, and
	// one past the cap is refused unread; a chunked body (length -1)
	// grows its buffer as it reads.
	var buf bytes.Buffer
	var err error = errBodyTooLarge
	if r.ContentLength <= MaxBodyBytes {
		buf.Grow(int(min(max(r.ContentLength, 0), 1<<20)) + bytes.MinRead)
		_, err = buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	}
	if err != nil {
		serr := &SubmitError{Status: http.StatusBadRequest,
			Payload: &ErrorPayload{Code: CodeBadRequest, Message: "reading request body: " + err.Error()}}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			serr.Status = http.StatusRequestEntityTooLarge
			serr.Payload.Message = fmt.Sprintf("request body exceeds %d bytes", int64(MaxBodyBytes))
		}
		return nil, serr
	}
	return buf.Bytes(), nil
}

// errBodyTooLarge is what reading a body past MaxBodyBytes returns.
var errBodyTooLarge = &http.MaxBytesError{Limit: MaxBodyBytes}

// acceptSubmit reads a submission body and admits it as a job. A body
// the memo knows is answered from the result cache without being
// decoded while its key is still cached; every other body is parsed,
// validated and profiled by ParseSubmit, then admitted by submit, and
// remembered when that ends in a cache hit. syncSolve marks a
// POST /v1/solve submission, whose live record is not replicated. A
// false return means the error response was already written.
func (s *Server) acceptSubmit(w http.ResponseWriter, r *http.Request, syncSolve bool) (*job, bool) {
	body, serr := ReadSubmitBody(w, r)
	if serr != nil {
		writeError(w, serr.Status, serr.Payload)
		return nil, false
	}
	var sum [sha256.Size]byte
	if s.memo != nil {
		sum = sha256.Sum256(body)
		if j, jerr, ok := s.submitKnown(sum); ok {
			if jerr != nil {
				writeError(w, jerr.status, jerr.payload)
				return nil, false
			}
			return j, true
		}
	}
	p, canon, spec, serr := ParseSubmit(body)
	if serr != nil {
		writeError(w, serr.Status, serr.Payload)
		return nil, false
	}
	j, hit, jerr := s.submit(p, canon, s.cfg.Profile.Apply(spec), syncSolve)
	if jerr != nil {
		writeError(w, jerr.status, jerr.payload)
		return nil, false
	}
	if hit && s.memo != nil {
		s.memo.put(sum, memoEntry{key: j.key, spec: j.spec})
	}
	return j, true
}

// errorPayloadForSpec classifies option-normalization failures.
func errorPayloadForSpec(err error) *ErrorPayload {
	pay := errorPayload(err)
	if pay.Code == CodeInternal {
		pay.Code = CodeBadRequest
	}
	pay.Message = "invalid options: " + pay.Message
	return pay
}

// handleSubmit is POST /v1/jobs: enqueue and return immediately — or,
// for durability=replicated, hold the ack until a follower
// acknowledged the job's record (bounded; degrades to async with the
// X-Nocmap-Durability header saying so).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j, ok := s.acceptSubmit(w, r, false)
	if !ok {
		return
	}
	outcome := ""
	if j.spec.Durability == DurabilityReplicated {
		outcome = s.awaitDurable(r.Context(), j.id, false)
		w.Header().Set("X-Nocmap-Durability", outcome)
	}
	status := http.StatusAccepted
	st := s.statusOf(j) // snapshot after the hold: the state may have advanced
	st.Durability = outcome
	if st.State == StateDone && st.CacheHit {
		status = http.StatusOK // served from the result cache
	}
	writeJSON(w, status, st)
}

// handleSolveSync is POST /v1/solve: enqueue, wait for the outcome and
// return the final status in one round trip. Closing the request
// cancels the job (a coalesced follower detaches without disturbing the
// shared computation).
func (s *Server) handleSolveSync(w http.ResponseWriter, r *http.Request) {
	j, ok := s.acceptSubmit(w, r, true)
	if !ok {
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The job may be solving for coalesced peers too; abandon only
		// cancels when nobody else shares the computation.
		s.abandon(j)
		<-j.done
	}
	st := s.statusOf(j)
	if j.spec.Durability == DurabilityReplicated {
		// The sync ack vouches for the outcome, so it waits for the
		// terminal record — not just the submit record — to be acked.
		st.Durability = s.awaitDurable(r.Context(), j.id, true)
		w.Header().Set("X-Nocmap-Durability", st.Durability)
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound,
			&ErrorPayload{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

// handleCancel is DELETE /v1/jobs/{id}: idempotent; the response is the
// job's status after the cancellation signal (a running solve may still
// be unwinding — poll or stream events for the final state).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound,
			&ErrorPayload{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

// handleEvents is GET /v1/jobs/{id}/events: a server-sent-event stream
// of "progress" events (JobEvent) while the job solves, terminated by
// one "done" event carrying the final JobStatus. Subscribing to a
// finished job yields the "done" event immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound,
			&ErrorPayload{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError,
			&ErrorPayload{Code: CodeInternal, Message: "response writer cannot stream"})
		return
	}
	// Subscribe before the headers go out: once the client sees the
	// response start, its progress events must already be captured.
	ch, unsubscribe := j.subscribe()
	defer unsubscribe()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	writeSSE := func(event string, data []byte) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}
	progress := func(ev JobEvent) {
		if data, err := json.Marshal(ev); err == nil {
			writeSSE("progress", data)
		}
	}
	for {
		select {
		case ev := <-ch:
			progress(ev)
		case <-j.done:
			// Drain progress published before completion, then finish.
			for {
				select {
				case ev := <-ch:
					progress(ev)
					continue
				default:
				}
				break
			}
			// The same bytes GET /v1/jobs/{id} answers, minus its newline.
			st := s.statusOf(j)
			writeSSE("done", bytes.TrimSuffix(appendJobStatus(nil, &st), []byte("\n")))
			return
		case <-r.Context().Done():
			return
		}
	}
}
