package store

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestServerMetricsObserveTraffic: real traffic moves every live-path
// metric, and the snapshot is JSON-marshalable (it backs the egserve
// /metrics endpoint).
func TestServerMetricsObserveTraffic(t *testing.T) {
	srv := newTestServer(t, ServerOptions{
		MaxOpenDocs:   2,
		FlushInterval: time.Millisecond,
	})
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("m-doc-%d", i)
		err := srv.With(id, func(ds *DocStore) error {
			return ds.Insert(0, "metrics payload")
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Let at least one group-commit flush land so fsync metrics move.
	deadline := time.Now().Add(5 * time.Second)
	for srv.MetricsSnapshot().FsyncNs.Count == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never recorded an fsync")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The materialized population settles under the cap asynchronously
	// (the flusher's per-interval pins can defer an eviction beat).
	for srv.MetricsSnapshot().MaterializedDocs > 2 {
		if time.Now().After(deadline) {
			t.Fatal("materialized docs never settled under the cap")
		}
		time.Sleep(2 * time.Millisecond)
	}

	m := srv.MetricsSnapshot()
	if m.ColdOpens != 6 {
		t.Errorf("cold_opens = %d, want 6", m.ColdOpens)
	}
	if m.Evictions < 4 {
		t.Errorf("evictions = %d, want >= 4 (cap 2, 6 docs)", m.Evictions)
	}
	if m.OpenDocs != 6 {
		t.Errorf("open_docs gauge = %d, want 6 (journal-only docs stay open)", m.OpenDocs)
	}
	if m.MaterializedDocs > 2 {
		t.Errorf("materialized_docs gauge = %d, above cap", m.MaterializedDocs)
	}
	if m.OpenNs.Count != m.ColdOpens || m.OpenNs.P99 <= 0 {
		t.Errorf("open_ns histogram: %+v", m.OpenNs)
	}
	if m.CommitBatchEvents.Count == 0 || m.CommitBatchEvents.Max < int64(len("metrics payload")) {
		t.Errorf("commit_batch_events: %+v", m.CommitBatchEvents)
	}

	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.ColdOpens != m.ColdOpens {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

// TestFlushOnceTimesOnlyIssuedFsyncs: the group-commit flusher visits
// every open document each tick, but only a document with unsynced
// appends costs an fsync, and only those are timed.
func TestFlushOnceTimesOnlyIssuedFsyncs(t *testing.T) {
	srv := newTestServer(t, ServerOptions{FlushInterval: time.Hour})
	for i := 0; i < 50; i++ {
		if err := srv.With(fmt.Sprintf("idle-%02d", i), func(*DocStore) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		srv.flushOnce()
	}
	if n := srv.MetricsSnapshot().FsyncNs.Count; n != 0 {
		t.Fatalf("50 idle documents over 5 ticks recorded %d fsyncs, want 0", n)
	}
	if err := srv.With("idle-00", func(ds *DocStore) error { return ds.Insert(0, "x") }); err != nil {
		t.Fatal(err)
	}
	srv.flushOnce()
	if n := srv.MetricsSnapshot().FsyncNs.Count; n != 1 {
		t.Fatalf("one append then one tick recorded %d fsyncs, want 1", n)
	}
}
