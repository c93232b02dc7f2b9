package server

import (
	"container/list"
	"encoding/json"

	"repro/nocmap/store"
)

// resultCache is a plain LRU over canonical job keys: key -> the
// marshaled nocmap.Result of a clean (non-partial) solve. The server
// serializes access under its own mutex, so the cache is not locked
// itself.
type resultCache struct {
	cap   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // key -> element holding *cacheEntry
	// onEvict, when set, observes every key the LRU drops — the server
	// uses it to delete the matching persisted cache entry.
	onEvict func(key string)
}

type cacheEntry struct {
	key    string
	result json.RawMessage
}

func newResultCache(cap int) *resultCache {
	return &resultCache{cap: cap, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached result and bumps its recency.
func (c *resultCache) get(key string) (json.RawMessage, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).result, true
}

// add inserts (or refreshes) a result, evicting the least recently used
// entry beyond capacity.
func (c *resultCache) add(key string, result json.RawMessage) {
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).result = result
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, result: result})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		evicted := oldest.Value.(*cacheEntry).key
		delete(c.items, evicted)
		if c.onEvict != nil {
			c.onEvict(evicted)
		}
	}
}

func (c *resultCache) len() int { return c.order.Len() }

// appendOps appends a cache op per entry, oldest first — the order a
// receiver should re-add them in so recency survives a transfer. It
// feeds the GET /v1/records migration/anti-entropy batch.
func (c *resultCache) appendOps(ops []store.Op) []store.Op {
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		ops = append(ops, store.Op{Kind: store.OpPutCache, Key: e.key, Result: e.result})
	}
	return ops
}
