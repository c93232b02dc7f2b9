package store

import "encoding/json"

// Apply is the tests' one shorthand for the store's one write path: it
// hands ops to s.ApplyOps as a single batch. With the op builders below
// a one-op write stays one line. The names are exported so the
// external store_test package shares them.
func Apply(s JobStore, ops ...Op) error { return s.ApplyOps(ops) }

func PutJob(rec JobRecord) Op     { return Op{Kind: OpPutJob, Rec: &rec} }
func DeleteJob(id string) Op      { return Op{Kind: OpDeleteJob, ID: id} }
func DeleteCache(key string) Op   { return Op{Kind: OpDeleteCache, Key: key} }
func PutReplica(rec JobRecord) Op { return Op{Kind: OpPutReplica, Rec: &rec} }
func DeleteReplica(id string) Op  { return Op{Kind: OpDeleteReplica, ID: id} }

func PutCache(key string, result json.RawMessage) Op {
	return Op{Kind: OpPutCache, Key: key, Result: result}
}
