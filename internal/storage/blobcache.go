package storage

import (
	"container/list"
	"sync"
)

// blobCacheBudget bounds the bytes a remote view keeps in its blob
// cache. A drain-remote worker (quick HERA over a 10k-run archive)
// reads about 37 blobs again each iteration, 0.23 MB, the largest
// about 105 KB, and the blobs of each experiment come round again as
// the experiments rotate. Replaying the blob calls of a 45 s run, an
// LRU of 1 MiB or more fetched only the one new index segment per
// cycle, and one of 0.75 MiB fetched 18 times as often: 2 MiB is about
// twice the working set.
const blobCacheBudget = 2 << 20

// blobCacheMaxEntry is the largest blob the cache admits. A one-shot
// read larger than that, such as the new bookkeeping index segment a
// worker reads each cycle (1 MB and more at 10k runs), would otherwise
// push the re-read working set out.
const blobCacheMaxEntry = blobCacheBudget / 4

// blobCache is a byte-bounded LRU of blob contents keyed by hash. A
// hash names its content, so an entry never goes stale and nothing
// invalidates one; the caller admits only bytes it knows to be right.
// It is safe for concurrent use.
type blobCache struct {
	mu    sync.Mutex
	size  int                      // bytes held
	order list.List                // of *cachedBlob, most recently used first
	items map[string]*list.Element // hash -> element of order
}

type cachedBlob struct {
	hash string
	data []byte
}

// get returns a copy of the cached content, marking it recently used.
func (c *blobCache) get(hash string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[hash]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e)
	return append([]byte(nil), e.Value.(*cachedBlob).data...), true
}

// has reports whether the content is cached, marking it recently used.
func (c *blobCache) has(hash string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[hash]
	if ok {
		c.order.MoveToFront(e)
	}
	return ok
}

// add caches a copy of data under hash, evicting the least recently
// used entries past the budget. Content larger than blobCacheMaxEntry
// is not admitted.
func (c *blobCache) add(hash string, data []byte) {
	if len(data) > blobCacheMaxEntry {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[hash]; ok {
		c.order.MoveToFront(e)
		return
	}
	if c.items == nil {
		c.items = make(map[string]*list.Element)
	}
	c.items[hash] = c.order.PushFront(&cachedBlob{hash: hash, data: append([]byte(nil), data...)})
	c.size += len(data)
	for c.size > blobCacheBudget {
		old := c.order.Remove(c.order.Back()).(*cachedBlob)
		delete(c.items, old.hash)
		c.size -= len(old.data)
	}
}

// reset drops every entry.
func (c *blobCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.items, c.size = nil, 0
}
