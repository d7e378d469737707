package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"egwalker/store"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run prints; every workload
// reports each of them. latency_p50_ms is the median of the workload's
// own operation latency: fan-out (a burst from due until the other
// editor applied it) on live-pair, join (a session from due until its
// document is loaded, caught up and applied) on doc-sessions, and merge
// (reconnect until both replicas' fingerprints are equal) on
// offline-merge. heap_inuse_mb is the median sampled HeapInuse.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"heap_inuse_mb", "MiB"},
}

// perLayerDefs are the metrics a traced run prints.
var perLayerDefs = []metricDef{
	// End-to-end figures from the untraced half of a traced run that
	// vary too much from run to run on a shared two-core host to carry a
	// regression bound: the latency tail, the highest heap sample, and
	// process CPU (getrusage) per typed event, session or merged event.
	{"e2e.latency_p90_ms", "ms"},
	{"e2e.latency_p99_ms", "ms"},
	{"e2e.peak_heap_mb", "MiB"},
	{"e2e.cpu_us_per_op", "us"},
	{"driver.late_p50_ms", "ms"},
	{"driver.late_p99_ms", "ms"},
	{"driver.offered_ratio", "ratio"},
	{"driver.invalid_windows", "count"},
	{"driver.cpu_share", "ratio"},
	{"error_rate", "ratio"},
	{"egwalker.edit_us_p50", "us"},
	{"egwalker.encode_ns_per_event", "ns"},
	{"egwalker.decode_ns_per_event", "ns"},
	{"egwalker.apply_us_p50", "us"},
	{"egwalker.apply_us_p99", "us"},
	{"egwalker.merge_apply_ms", "ms"},
	{"egwalker.load_us_p50", "us"},
	{"egwalker.summary_us_p50", "us"},
	{"egwalker.save_us_p50", "us"},
	{"egwalker.cpu_share", "ratio"},
	{"core.cpu_share", "ratio"},
	{"colenc.cpu_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"netsync.send_us_p50", "us"},
	{"netsync.up_bytes_per_event", "B"},
	{"netsync.first_frame_ms_p50", "ms"},
	{"netsync.first_frame_ms_p99", "ms"},
	{"netsync.catchup_bytes_p50", "B"},
	{"netsync.cpu_share", "ratio"},
	{"store.relay_us_p50", "us"},
	{"store.relay_us_p99", "us"},
	{"store.ingest_us_p50", "us"},
	{"store.ingest_us_p99", "us"},
	{"store.fsyncs", "count"},
	{"store.fsync_ms_p99", "ms"},
	{"store.commit_batch_events_p50", "count"},
	{"store.compactions", "count"},
	{"store.compact_ms_total", "ms"},
	{"store.cold_opens", "count"},
	{"store.open_ms_p50", "ms"},
	{"store.materializations", "count"},
	{"store.materialize_ms_total", "ms"},
	{"store.evictions", "count"},
	{"store.block_serves", "count"},
	{"store.summary_resumes", "count"},
	{"store.resume_fallbacks", "count"},
	{"store.outbox_depth_p99", "count"},
	{"store.coalesced_frames", "count"},
	{"store.peers_severed", "count"},
	{"store.disk_bytes_per_event", "B"},
	{"store.cpu_share", "ratio"},
	{"store.conn_cpu_share", "ratio"},
	{"store.bg_cpu_share", "ratio"},
	{"trace.overhead_latency_pct", "%"},
	{"trace.overhead_cpu_pct", "%"},
	{"trace.busy_ms_p50", "ms"},
	{"trace.wait_ms_p50", "ms"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// perLayer computes the traced run's metrics: span statistics from the
// traced window, store metrics as deltas over it (histogram quantiles
// are over the traced instance's life, which the window dominates —
// the server's histograms cannot be windowed from outside), CPU
// profile shares, and the overhead against the untraced window.
func perLayer(plain, traced phaseResult, envs []*env) map[string]float64 {
	w := traced.win
	ls := byName(w.spans)
	busy, wait, _ := breakdown(w.spans)
	m0, m1 := w.m0, w.m1
	var attempted, failed int64
	for _, e := range envs {
		attempted += e.attempted.Load()
		failed += e.failed.Load()
	}
	out := map[string]float64{
		"e2e.latency_p90_ms": plain.win.LatP90,
		"e2e.latency_p99_ms": plain.win.LatP99,
		"e2e.peak_heap_mb":   plain.win.MaxHeap,
		"e2e.cpu_us_per_op":  plain.win.CPUPerOp,

		"driver.late_p50_ms":     w.LateP50,
		"driver.late_p99_ms":     w.LateP99,
		"driver.offered_ratio":   w.Offered,
		"driver.invalid_windows": float64(plain.invalid + traced.invalid),

		"egwalker.edit_us_p50":         ls["egwalker.edit"].q(0.5),
		"egwalker.encode_ns_per_event": ls["egwalker.encode"].nsPerEvent(),
		"egwalker.decode_ns_per_event": ls["egwalker.decode"].nsPerEvent(),
		"egwalker.apply_us_p50":        ls["egwalker.apply"].q(0.5),
		"egwalker.apply_us_p99":        ls["egwalker.apply"].q(0.99),
		"egwalker.merge_apply_ms":      median(w.mergeAppl),
		"egwalker.load_us_p50":         ls["egwalker.load"].q(0.5),
		"egwalker.summary_us_p50":      ls["egwalker.summary"].q(0.5),
		"egwalker.save_us_p50":         ls["egwalker.save"].q(0.5),

		"netsync.send_us_p50":        ls["netsync.send"].q(0.5),
		"netsync.first_frame_ms_p50": ls["netsync.first_frame"].q(0.5) / 1000,
		"netsync.first_frame_ms_p99": ls["netsync.first_frame"].q(0.99) / 1000,
		"netsync.catchup_bytes_p50":  bytesP50(w.spans, "netsync.catchup"),

		"store.relay_us_p50":            ls["store.relay"].q(0.5),
		"store.relay_us_p99":            ls["store.relay"].q(0.99),
		"store.ingest_us_p50":           float64(m1.ApplyNs.P50) / 1e3,
		"store.ingest_us_p99":           float64(m1.ApplyNs.P99) / 1e3,
		"store.fsyncs":                  float64(m1.FsyncNs.Count - m0.FsyncNs.Count),
		"store.fsync_ms_p99":            float64(m1.FsyncNs.P99) / 1e6,
		"store.commit_batch_events_p50": float64(m1.CommitBatchEvents.P50),
		"store.compactions":             float64(m1.Compactions - m0.Compactions),
		"store.compact_ms_total":        float64(m1.CompactNs.Sum-m0.CompactNs.Sum) / 1e6,
		"store.cold_opens":              float64(m1.ColdOpens - m0.ColdOpens),
		"store.open_ms_p50":             float64(m1.OpenNs.P50) / 1e6,
		"store.materializations":        float64(m1.LazyMaterializations - m0.LazyMaterializations),
		"store.materialize_ms_total":    float64(m1.MaterializeNs.Sum-m0.MaterializeNs.Sum) / 1e6,
		"store.evictions":               float64(m1.Evictions - m0.Evictions),
		"store.block_serves":            float64(m1.BlockServes - m0.BlockServes),
		"store.summary_resumes":         float64(m1.SummaryResumes - m0.SummaryResumes),
		"store.resume_fallbacks":        float64(traced.fallbacks),
		"store.outbox_depth_p99":        float64(m1.OutboxDepth.P99),
		"store.coalesced_frames":        float64(m1.CoalescedFrames - m0.CoalescedFrames),
		"store.peers_severed":           float64(traced.severed),
		"store.disk_bytes_per_event":    traced.diskPerEv,

		"trace.busy_ms_p50": quantile(busy, 0.5),
		"trace.wait_ms_p50": quantile(wait, 0.5),
	}
	if attempted > 0 {
		out["error_rate"] = float64(failed) / float64(attempted)
	} else {
		out["error_rate"] = 1
	}
	var upBytes, upEvents int
	for _, s := range w.spans {
		if s.Name == "netsync.send" && s.Events > 0 {
			upBytes += s.Bytes
			upEvents += s.Events
		}
	}
	if upEvents > 0 {
		out["netsync.up_bytes_per_event"] = float64(upBytes) / float64(upEvents)
	} else {
		out["netsync.up_bytes_per_event"] = 0
	}
	if p := w.profile; p != nil {
		out["driver.cpu_share"] = p.layer("driver")
		out["egwalker.cpu_share"] = p.layer("egwalker")
		out["core.cpu_share"] = p.layer("core")
		out["colenc.cpu_share"] = p.layer("colenc")
		out["runtime.gc_cpu_share"] = p.layer("gc")
		out["netsync.cpu_share"] = p.layer("netsync")
		out["store.cpu_share"] = p.layer("store")
		out["store.conn_cpu_share"] = p.label("server.conn")
		out["store.bg_cpu_share"] = p.label("server.bg")
	}
	out["trace.overhead_latency_pct"] = pctChange(plain.win.LatP50, w.LatP50)
	out["trace.overhead_cpu_pct"] = pctChange(plain.win.CPUPerOp, w.CPUPerOp)
	for _, d := range perLayerDefs {
		if _, ok := out[d.name]; !ok {
			out[d.name] = 0
		}
	}
	return out
}

func pctChange(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}

func bytesP50(spans []span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, float64(s.Bytes))
		}
	}
	return quantile(v, 0.5)
}

// host is the provenance block every report carries.
type host struct {
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Kernel        string `json:"kernel"`
	DataFS        string `json:"data_fs"`
	Seed          int64  `json:"seed"`
	ServerOptions string `json:"server_options"`
	Commit        string `json:"commit"`
	SourceSHA256  string `json:"source_sha256"`
}

func hostBlock(cfg config, dataDir string) host {
	h := host{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Kernel:        kernel(),
		DataFS:        fsType(filepath.Dir(dataDir)),
		Seed:          cfg.seed,
		ServerOptions: "store.ServerOptions{} (shipped defaults: 50ms group commit, SnapshotEvery 8192, MaxOpenDocs 64, MaxJournalDocs 1024)",
		Commit:        "unknown (not built from a git checkout)",
		SourceSHA256:  sourceHash("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	str := func(b [65]int8) string {
		var sb strings.Builder
		for _, c := range b {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		return sb.String()
	}
	return str(u.Sysname) + " " + str(u.Release) + " " + str(u.Machine)
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// sourceHash identifies the code measured when no VCS revision is
// embedded: a hash over every go.mod and .go file under root.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// diskPerEvent sums DiskUsage over docs (opened through the server)
// and divides by their events.
func diskPerEvent(srv *store.Server, docs []string) (float64, error) {
	var bytes, events int64
	for _, d := range docs {
		err := srv.With(d, func(ds *store.DocStore) error {
			snap, wal, _ := ds.DiskUsage()
			bytes += snap + wal
			events += int64(ds.NumEvents())
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("disk usage of %s: %w", d, err)
		}
	}
	if events == 0 {
		return 0, nil
	}
	return float64(bytes) / float64(events), nil
}
