package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"egwalker/store"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	workdir  string
	// diverge makes the workload corrupt one replica just before the
	// convergence gate (self-test of the gate).
	diverge bool
}

// instance is one set-up workload: its fixture, server and clients.
type instance interface {
	// start begins the open-loop load; its goroutines stop when stop
	// is closed.
	start(stop <-chan struct{})
	// finish waits for the load to stop and drains deliveries; every
	// operation still undelivered after the drain counts as failed.
	finish() error
	// verify is the convergence gate: every replica's fingerprint
	// must equal a fresh Doc rebuilt from the union of their events.
	verify() error
	// diskBytesPerEvent reports the server's on-disk bytes per event
	// for the workload's documents (DocStore.DiskUsage).
	diskBytesPerEvent() (float64, error)
	close() error
}

// A workload's prepare function generates its inputs from the seed and
// stores its fixture documents under e.dir (untimed). It returns the
// set-up function, which starts a server over the fixture and connects
// the clients; that is what setup_s times.
var workloads = map[string]func(e *env) (setupFunc, error){
	"live-pair":     prepareLivePair,
	"doc-sessions":  prepareDocSessions,
	"offline-merge": prepareOfflineMerge,
}

type setupFunc func() (instance, error)

// setupReps is how many times a run sets its workload up over the same
// fixture; setup_s is the median. Set-up only reads the fixture, so
// every repetition starts from the same state.
const setupReps = 11

// maxWindows bounds how many measurement windows a run tries before it
// gives up on getting one whose offered load was on target.
const maxWindows = 3

// env is what a workload instance shares with the measurement loop.
type env struct {
	cfg config
	dir string // the instance's data directory
	h   *harness
	tr  *tracer // nil unless this instance is traced

	lat        samples // end-to-end latency of each operation, ms
	late       samples // generator lateness, ms
	mergeApply samples // offline-merge: Doc.Apply time of one merged branch, ms
	ops        atomic.Int64
	attempted  atomic.Int64
	failed     atomic.Int64

	mu          sync.Mutex
	pacers      []*pacer
	phaseIssued float64 // units issued by closed pacing phases
	phaseDue    float64 // units those phases were due to issue
	failures    []string
	// frameOwner maps an uploaded frame's payload hash to the root span
	// of the operation that sent it (traced instances only).
	frameOwner map[uint64]int64
}

func newEnv(cfg config, dir string, tr *tracer) *env {
	return &env{cfg: cfg, dir: dir, tr: tr}
}

// pacer returns a continuous open-loop pacer whose offered ratio the
// measurement windows check.
func (e *env) pacer(rate float64, stop <-chan struct{}) *pacer {
	p := newPacer(rate, stop)
	p.late = &e.late
	e.mu.Lock()
	e.pacers = append(e.pacers, p)
	e.mu.Unlock()
	return p
}

// phase records a closed pacing phase: issued units against the units
// its schedule made due over its duration.
func (e *env) phase(issued, due float64) {
	e.mu.Lock()
	e.phaseIssued += issued
	e.phaseDue += due
	e.mu.Unlock()
}

// fail counts n failed operations and keeps the first few reasons.
func (e *env) fail(n int, format string, args ...any) {
	e.failed.Add(int64(n))
	e.mu.Lock()
	if len(e.failures) < 10 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
	e.mu.Unlock()
}

// window is one measurement interval over a running workload.
type window struct {
	Seconds   float64 `json:"seconds"`
	Samples   int     `json:"samples"`
	LatP50    float64 `json:"latency_p50_ms"`
	LatP90    float64 `json:"latency_p90_ms"`
	LatP99    float64 `json:"latency_p99_ms"`
	CPUPerOp  float64 `json:"cpu_us_per_op"`
	UserPerOp float64 `json:"cpu_user_us_per_op"`
	SysPerOp  float64 `json:"cpu_sys_us_per_op"`
	Ops       int64   `json:"ops"`
	HeapP50   float64 `json:"heap_inuse_mb"`
	MaxHeap   float64 `json:"peak_heap_mb"`
	Offered   float64 `json:"offered_ratio"`
	LateP50   float64 `json:"late_p50_ms"`
	LateP99   float64 `json:"late_p99_ms"`
	Valid     bool    `json:"valid"`
	CPUCores  float64 `json:"cpu_cores"`

	m0, m1    store.MetricsSnapshot
	spans     []span
	profile   *cpuShares
	mergeAppl []float64
}

func (e *env) offerState() (issued, due float64, rates float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range e.pacers {
		issued += p.issuedUnits()
		rates += p.rate
	}
	return issued + e.phaseIssued, e.phaseDue, rates
}

// measure runs one window of secs seconds; profile adds a CPU profile.
//
// Heap is sampled every 5 ms. heap_inuse_mb is the median sample: the
// heap the workload holds in steady state. The highest sample
// (peak_heap_mb) depends on where garbage collections happen to fall
// and varies too much from run to run to carry a regression bound.
func (e *env) measure(secs float64, profile bool) (window, error) {
	e.lat.reset()
	e.late.reset()
	e.mergeApply.reset()
	if e.tr != nil {
		e.tr.reset()
	}
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return window{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	hs := startHeapSampler(5 * time.Millisecond)
	m0 := e.h.srv.MetricsSnapshot()
	ops0 := e.ops.Load()
	iss0, due0, _ := e.offerState()
	u0, s0 := cpuTimes()
	t0, cpu0 := time.Now(), cpuTime()
	time.Sleep(time.Duration(secs * float64(time.Second)))
	cpu1, t1 := cpuTime(), time.Now()
	u1, s1 := cpuTimes()
	hs.finish()
	if profile {
		pprof.StopCPUProfile()
	}
	w := window{
		Seconds:   t1.Sub(t0).Seconds(),
		m0:        m0,
		m1:        e.h.srv.MetricsSnapshot(),
		mergeAppl: e.mergeApply.values(),
	}
	heap := hs.all.values()
	w.HeapP50 = quantile(heap, 0.5)
	w.MaxHeap = quantile(heap, 1)
	lat := e.lat.values()
	w.Samples = len(lat)
	w.LatP50 = quantile(lat, 0.5)
	w.LatP90 = quantile(lat, 0.9)
	w.LatP99 = quantile(lat, 0.99)
	w.Ops = e.ops.Load() - ops0
	if w.Ops > 0 {
		w.CPUPerOp = usOf(cpu1-cpu0) / float64(w.Ops)
		w.UserPerOp = usOf(u1-u0) / float64(w.Ops)
		w.SysPerOp = usOf(s1-s0) / float64(w.Ops)
	}
	w.CPUCores = (cpu1 - cpu0).Seconds() / w.Seconds
	late := e.late.values()
	w.LateP50 = quantile(late, 0.5)
	w.LateP99 = quantile(late, 0.99)
	iss1, due1, rates := e.offerState()
	if due := due1 - due0 + rates*w.Seconds; due > 0 {
		w.Offered = (iss1 - iss0) / due
	}
	w.Valid = math.Abs(w.Offered-1) <= 0.05 && w.Ops > 0
	if e.tr != nil {
		w.spans = e.tr.snapshot()
	}
	if profile {
		shares, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return window{}, fmt.Errorf("parsing cpu profile: %w", err)
		}
		w.profile = &shares
	}
	return w, nil
}

// phaseResult is one run of a workload instance: its valid window, how
// many windows were thrown away for pacing, and what the instance
// reported after the load stopped.
type phaseResult struct {
	win       window
	invalid   int
	diskPerEv float64
	fallbacks int64
	severed   int64
}

// drive starts the load, warms up, measures windows until one has its
// offered load on target (at most maxWindows), stops the load, and runs
// the convergence gate.
func drive(e *env, inst instance, secs float64, profile bool) (phaseResult, error) {
	var pr phaseResult
	m0 := e.h.srv.MetricsSnapshot()
	stop := make(chan struct{})
	inst.start(stop)
	warm := min(2, secs/5)
	if e.cfg.tiny {
		warm = 0.1
	}
	time.Sleep(time.Duration(warm * float64(time.Second)))
	var werr error
	for i := 0; i < maxWindows; i++ {
		w, err := e.measure(secs, profile)
		if err != nil {
			werr = err
			break
		}
		pr.win = w
		if w.Valid {
			break
		}
		pr.invalid++
		fmt.Fprintf(os.Stderr, "perfbench: window %d invalid (offered ratio %.3f, %d ops), measuring again\n", i+1, w.Offered, w.Ops)
	}
	close(stop)
	ferr := inst.finish()
	m1 := e.h.srv.MetricsSnapshot()
	pr.fallbacks = m1.ResumeFallbacks - m0.ResumeFallbacks
	pr.severed = m1.PeersSevered - m0.PeersSevered
	if pr.fallbacks > 0 {
		e.fail(int(pr.fallbacks), "%d summary resumes fell back to a full catch-up", pr.fallbacks)
	}
	if pr.severed > 0 {
		e.fail(int(pr.severed), "%d subscribers were severed below the knee", pr.severed)
	}
	if werr != nil {
		return pr, werr
	}
	if ferr != nil {
		return pr, ferr
	}
	if !pr.win.Valid {
		e.fail(1, "no window had its offered load within 5%% of target (last %.3f)", pr.win.Offered)
	}
	if err := inst.verify(); err != nil {
		e.fail(1, "convergence gate: %v", err)
	}
	d, err := inst.diskBytesPerEvent()
	if err != nil {
		return pr, err
	}
	pr.diskPerEv = d
	return pr, nil
}

// resultLine is what a run prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute sets the workload up setupReps times (keeping the last),
// drives it, and assembles the result. A traced run drives an untraced
// instance for half the seconds and a fresh traced instance for the
// other half, so the per-layer numbers and the tracing overhead come
// from one invocation.
func execute(cfg config, out io.Writer) (resultLine, error) {
	if err := os.MkdirAll(cfg.workdir, 0o777); err != nil {
		return resultLine{}, err
	}
	dataDir := func(tag string) string {
		return filepath.Join(cfg.workdir, fmt.Sprintf("data-%d-%s", os.Getpid(), tag))
	}
	e := newEnv(cfg, dataDir("plain"), nil)
	defer removeData(e.dir)
	setup, err := prepare(e)
	if err != nil {
		return resultLine{}, err
	}
	var setups []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		// Every repetition starts from a collected heap, so a collection
		// left over from the previous one does not land in its timing.
		runtime.GC()
		t0 := time.Now()
		inst, err = setup()
		if err != nil {
			return resultLine{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := inst.close(); err != nil {
				return resultLine{}, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	secs := cfg.seconds
	if cfg.trace {
		secs /= 2
	}
	plain, err := drive(e, inst, secs, false)
	if cerr := inst.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return resultLine{}, err
	}
	envs := []*env{e}

	rep := report{Host: hostBlock(cfg, e.dir), Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, SetupS: setups}
	rep.Windows = append(rep.Windows, plain.win)
	rep.InvalidWindows = plain.invalid
	metrics := map[string]metricValue{}
	put := func(name string, v float64) {
		metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}

	if !cfg.trace {
		put("setup_s", median(setups))
		put("latency_p50_ms", plain.win.LatP50)
		put("heap_inuse_mb", plain.win.HeapP50)
	} else {
		te := newEnv(cfg, dataDir("traced"), newTracer())
		defer removeData(te.dir)
		tsetup, err := prepare(te)
		if err != nil {
			return resultLine{}, err
		}
		tinst, err := tsetup()
		if err != nil {
			return resultLine{}, fmt.Errorf("traced setup: %w", err)
		}
		traced, err := drive(te, tinst, secs, true)
		spans := te.tr.snapshot()
		if cerr := tinst.close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return resultLine{}, err
		}
		envs = append(envs, te)
		rep.Windows = append(rep.Windows, traced.win)
		rep.InvalidWindows += traced.invalid
		for name, v := range perLayer(plain, traced, envs) {
			put(name, v)
		}
		spanFile := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(spanFile, spans); err != nil {
			return resultLine{}, err
		}
		_, _, self := breakdown(traced.win.spans)
		rep.SelfMs = map[string]float64{}
		for name, d := range self {
			rep.SelfMs[name] = msOf(d)
		}
		rep.SpanFile = spanFile
	}

	var res resultLine
	for _, ev := range envs {
		res.Attempted += ev.attempted.Load()
		res.Failed += ev.failed.Load()
		rep.Failures = append(rep.Failures, ev.failures...)
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
		res.Correct = false
		rep.Failures = append(rep.Failures, "no operations attempted")
	}
	res.Metrics = metrics
	rep.Result = res
	if err := rep.write(cfg, out); err != nil {
		return resultLine{}, err
	}
	return res, nil
}

// prepare builds the workload's inputs and fixture, then flushes the
// fixture to disk, so the measured window does not compete with the
// kernel writing it back.
func prepare(e *env) (setupFunc, error) {
	setup, err := workloads[e.cfg.workload](e)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	syscall.Sync()
	return setup, nil
}

// removeData deletes a data directory and flushes the deletion, so the
// next run does not start while the kernel is still reclaiming it.
func removeData(dir string) {
	os.RemoveAll(dir)
	syscall.Sync()
}

// report is the run's full record: provenance, every window, failures.
type report struct {
	Host           host               `json:"host"`
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Trace          bool               `json:"trace"`
	SetupS         []float64          `json:"setup_s_reps"`
	Windows        []window           `json:"windows"`
	InvalidWindows int                `json:"invalid_windows"`
	SelfMs         map[string]float64 `json:"span_self_ms,omitempty"`
	SpanFile       string             `json:"span_file,omitempty"`
	Failures       []string           `json:"failures,omitempty"`
	Result         resultLine         `json:"result"`
}

// write prints a human-readable summary and saves the JSON report.
func (r report) write(cfg config, out io.Writer) error {
	hb, err := json.Marshal(r.Host)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# host %s\n", hb)
	for i, w := range r.Windows {
		fmt.Fprintf(out, "# window %d: %.1fs samples=%d latency p50/p90/p99=%.3f/%.3f/%.3fms ops=%d offered=%.3f late_p50=%.3fms late_p99=%.3fms cpu=%.2f cores heap median/peak=%.1f/%.1fMiB valid=%v\n",
			i, w.Seconds, w.Samples, w.LatP50, w.LatP90, w.LatP99, w.Ops, w.Offered, w.LateP50, w.LateP99, w.CPUCores, w.HeapP50, w.MaxHeap, w.Valid)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "# FAILED: %s\n", f)
	}
	names := make([]string, 0, len(r.Result.Metrics))
	for n := range r.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Result.Metrics[n]
		fmt.Fprintf(out, "%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.workdir, "reports")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)), b, 0o666)
}
