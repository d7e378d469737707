package cluster

import (
	"sync"
	"time"
)

// healthTable tracks peer reachability as observed by this node's own
// dials: replica-link reconnect attempts feed it. A peer is "down" from its first failed dial and "failed" once
// it has stayed down past the grace period — only then does routing
// fail a document over to the next replica, so a blip (one dropped
// connection, a restart inside the grace window) never moves
// ownership.
type healthTable struct {
	mu   sync.Mutex
	down map[string]time.Time // addr -> when it was first seen down
}

func newHealthTable() *healthTable {
	return &healthTable{down: make(map[string]time.Time)}
}

func (t *healthTable) markDown(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.down[addr]; !ok {
		t.down[addr] = time.Now()
	}
}

func (t *healthTable) markUp(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.down, addr)
}

// failed reports whether addr has been down for at least grace.
func (t *healthTable) failed(addr string, grace time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	since, ok := t.down[addr]
	return ok && time.Since(since) >= grace
}

// downSince returns when addr was first seen down (zero if up).
func (t *healthTable) downSince(addr string) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down[addr]
}

// prune drops entries for addresses that are not current members.
// Dials feed the table by address, so an address that leaves the
// membership (a reconfig, a decommissioned peer still named in a
// stale redirect) would otherwise sit in the map forever; the
// replicator's mesh loop calls this every anti-entropy tick with the
// ring's node list.
func (t *healthTable) prune(members []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.down) == 0 {
		return
	}
	keep := make(map[string]bool, len(members))
	for _, m := range members {
		keep[m] = true
	}
	for addr := range t.down {
		if !keep[addr] {
			delete(t.down, addr)
		}
	}
}
