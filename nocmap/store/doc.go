// Package store persists nocmapd's job table and result cache across
// restarts.
//
// A JobStore holds three kinds of state: job records (identity, state,
// canonical problem + options for live jobs), terminal outcomes (the
// marshaled result or typed error, byte-identical to what the server
// answered before a restart), and result-cache entries. The
// nocmap/server replays a store at boot — terminal jobs become
// queryable history again, queued and running jobs are re-enqueued and
// solved anew, and the cache is re-warmed.
//
// Every write is a batch of Ops handed to ApplyOps, the one write
// path: the server's flusher passes each batch it drained from its
// outbox straight through, so a batch costs one fsync however many
// records it carries. Two implementations ship: MemStore (in-memory,
// for tests and process-lifetime replay) and FileStore (an fsynced
// append-only WAL compacted into a snapshot, surviving SIGKILL at any
// instant). FaultStore wraps either to inject disk faults per batch.
//
// An Op's JSON form is the store's one record format: each WAL line is
// one Op, and a snapshot is a file of put ops, one per live record,
// read back by the same replay as the WAL.
//
// A result is written once. The store keeps a result table, one
// result per JobKey shared by every record and cache entry that holds
// it; a line whose result is its key's entry names it by key
// ("ref":true) instead of carrying it, and a snapshot line whose record
// keeps a result of its own beside the table says so ("own":true).
// Callers never see this: they
// hand ApplyOps ops with their results, and Load returns every record
// with its result. Stores written before the table load unchanged; a
// store written with it cannot be read by an older version.
package store
