// Package server is the nocmapd solve service: an HTTP/JSON front end
// over the public nocmap API (and nothing below it — the import gate
// enforces that) for serving mapping workloads.
//
// A Server owns a bounded pool of solver workers fed from a bounded
// queue. Three layers keep repeated traffic cheap:
//
//   - An LRU result cache keyed by a canonical problem+options hash
//     (worker counts excluded — they never change results): a repeated
//     submission is answered from the cache without re-solving and
//     marked CacheHit.
//   - Request coalescing: a submission identical to a queued or running
//     job attaches to it as a follower (marked Coalesced), sharing one
//     computation and its outcome.
//   - Shared topologies: every small topology decoded from the wire is
//     interned, so identical specs share one immutable instance and its
//     warm routing caches whichever worker solves the job. Workers take
//     jobs from the queue in submission order.
//
// Jobs move queued -> running -> done | failed | cancelled. DELETE
// cancels through the solver's context.Context: a running job returns
// the best mapping committed so far (Result.Partial) in its final
// status. Progress streams as server-sent events; see Handler for the
// route table and the SERVER.md reference in docs/ for the wire
// schemas and curl examples.
//
// Construct with New, mount Handler on any mux or server, stop with
// Close. Command nocmapd (cmd/nocmapd) is the standalone binary;
// package repro/nocmap/client is the matching Go client.
package server
