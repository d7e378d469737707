// Command egload is an open-loop load generator for egserve: it drives
// many concurrent clients across many documents over real TCP, measures
// what the paper's server story needs measured — apply/fan-out latency
// under load, reconnect catch-up cost — and writes a machine-readable
// BENCH_server.json so every run extends a comparable perf trajectory.
//
// Usage:
//
//	egload [-addr 127.0.0.1:4222] [-docs 4] [-writers 2] [-rate 100]
//	       [-duration 10s] [-mix seq,burst,trace,resume,hotdoc,colddocs]
//	       [-schedule ramp:500:5000:500] [-slot 1s] [-conns 1000]
//	       [-writers-total 64] [-slo 250ms]
//	       [-cold-docs 10000] [-cold-joins 500]
//	       [-out BENCH_server.json] [-metrics-url http://127.0.0.1:4223/metrics]
//	       [-seed 1] [-doc-prefix NAME] [-cluster host1:4222,host2:4222,...]
//
// Against an egserve cluster, -cluster lists seed addresses: initial
// dials rotate across them and every client follows redirect frames
// to each document's serving replica (fail-over included — a redirect
// landing on a dead node is retried against the remaining
// candidates).
//
// Workload mixes (each runs for -duration against its own fresh set of
// documents):
//
//   - seq: one writer per document typing sequentially — the fast path,
//     a linear event graph per document.
//   - burst: -writers concurrent writers per document editing at once;
//     constant short-lived branches force real merge work on the server
//     and on every subscriber.
//   - trace: like burst, but writers type with the C1 benchmark trace's
//     calibrated statistics (internal/trace.TypistFromSpec) instead of
//     the default mix.
//   - resume: steady single-writer traffic plus one churn client per
//     document that repeatedly disconnects and reconnects presenting
//     its version summary (netsync resume hello), measuring catch-up latency
//     and how many events each catch-up shipped versus the full
//     history a snapshot join would have sent.
//   - hotdoc: writers are assigned to documents by a Zipf draw, so a
//     few documents absorb most of the fleet — per-document lock and
//     outbox contention under skew.
//   - colddocs: populates -cold-docs write-mostly documents (one
//     short-lived compact writer each, far beyond the server's
//     materialization cap) and then samples -cold-joins cold compact
//     joins, measuring dial→first-frame and dial→caught-up latency —
//     the zero-materialization block-serve path under a large hosted
//     population. Ignores -duration; see -cold-docs and -cold-joins.
//
// Scaling knobs (internal/loadgen):
//
//   - -schedule drives the aggregate offered rate (events/second across
//     the whole writer fleet, not per writer) slot by slot:
//     steady:RATE:SLOTS, ramp:BEGIN:TARGET:STEP[:SLOTS_PER_STEP],
//     sweep:... (ramp up then back down), and
//     burst:BASE:PEAK:PERIOD:DUTY:SLOTS (see internal/sched). Each
//     -slot wall-clock interval gets its own send/deliver throughput
//     and fan-out p50/p95/p99 row in the report, and the knee — the
//     first slot whose p99 exceeds -slo or whose deliveries fall below
//     99% of offered — is computed from the curve.
//   - -conns multiplexes that many subscriber connections over the
//     documents (at least one per document while they last, extras
//     skewed by the mix's Zipf draw), so thousand-connection fan-out is
//     measurable from one process.
//   - -writers-total fixes the writer fleet size absolutely; with Zipf
//     document populations in the thousands, writers-per-doc stops
//     being the natural knob.
//
// Every mix reports send/deliver throughput (events/sec) and the
// client-observed fan-out latency distribution (p50/p95/p99): the time
// from a writer handing a batch to the TCP stack until a subscriber of
// the same document has it. Writers and readers live in one process,
// so timestamps share a clock. With -metrics-url, the server's own
// /metrics snapshot (apply latency, fsync stalls, group-commit batch
// sizes, outbox depths and bytes, sever/coalesce/resume counters) is
// fetched after the last mix and embedded in the report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"egwalker/cluster"
	"egwalker/internal/loadgen"
	"egwalker/internal/sched"
)

var (
	addr         = flag.String("addr", "127.0.0.1:4222", "egserve TCP address")
	docs         = flag.Int("docs", 4, "documents per mix")
	writers      = flag.Int("writers", 2, "writers per document (burst/trace/hotdoc mixes)")
	writersTotal = flag.Int("writers-total", 0, "total writer fleet size (overrides docs*writers when > 0)")
	rate         = flag.Float64("rate", 100, "target events/second per writer (open loop; ignored when -schedule is set)")
	duration     = flag.Duration("duration", 10*time.Second, "run time per mix (ignored when -schedule is set)")
	schedFlag    = flag.String("schedule", "", "aggregate rate schedule, e.g. ramp:500:5000:500 (see internal/sched; overrides -rate/-duration)")
	slotDur      = flag.Duration("slot", time.Second, "wall-clock length of one schedule slot")
	conns        = flag.Int("conns", 0, "subscriber connections multiplexed over the documents (0: one full reader per doc)")
	slo          = flag.Duration("slo", 250*time.Millisecond, "fan-out p99 SLO for knee detection on scheduled runs")
	mixFlag      = flag.String("mix", "seq,burst,resume", "comma-separated workload mixes (seq,burst,trace,resume,hotdoc)")
	out          = flag.String("out", "BENCH_server.json", "report path")
	metricsURL   = flag.String("metrics-url", "", "egserve metrics endpoint to embed in the report")
	seed         = flag.Int64("seed", 1, "base RNG seed (edit streams are deterministic per seed)")
	docPrefix    = flag.String("doc-prefix", "", "document ID prefix (default load-<pid>-<unix>, so each run gets fresh docs)")
)

// report is the BENCH_server.json schema. The schema string is bumped
// on breaking changes so trajectory tooling can tell runs apart.
type report struct {
	Schema        string           `json:"schema"`
	GeneratedAt   string           `json:"generated_at"`
	Addr          string           `json:"addr"`
	Config        runConfig        `json:"config"`
	Mixes         []loadgen.Result `json:"mixes"`
	ServerMetrics json.RawMessage  `json:"server_metrics,omitempty"`
}

type runConfig struct {
	Docs         int     `json:"docs"`
	Writers      int     `json:"writers_per_doc"`
	WritersTotal int     `json:"writers_total,omitempty"`
	RateEPS      float64 `json:"target_rate_events_per_sec_per_writer"`
	DurationSec  float64 `json:"duration_sec_per_mix"`
	Schedule     string  `json:"schedule,omitempty"`
	SlotSec      float64 `json:"slot_sec,omitempty"`
	Conns        int     `json:"conns,omitempty"`
	SLONs        int64   `json:"slo_ns,omitempty"`
	Seed         int64   `json:"seed"`
}

func main() {
	flag.Parse()
	if *docPrefix == "" {
		*docPrefix = fmt.Sprintf("load-%d-%d", os.Getpid(), time.Now().Unix())
	}
	if *clusterFlag != "" {
		seeds := strings.Split(*clusterFlag, ",")
		for i := range seeds {
			seeds[i] = strings.TrimSpace(seeds[i])
		}
		clusterDialer = &cluster.Dialer{Addrs: seeds}
		*addr = seeds[0] // reported as the run's address
	}
	var schedule *sched.Schedule
	if *schedFlag != "" {
		s, err := sched.Parse(*schedFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "egload:", err)
			os.Exit(2)
		}
		schedule = s
	}
	names := strings.Split(*mixFlag, ",")
	rep := report{
		Schema:      "egload/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Addr:        *addr,
		Config: runConfig{
			Docs:         *docs,
			Writers:      *writers,
			WritersTotal: *writersTotal,
			RateEPS:      *rate,
			DurationSec:  duration.Seconds(),
			Seed:         *seed,
			Conns:        *conns,
		},
	}
	if schedule != nil {
		rep.Config.Schedule = schedule.Spec()
		rep.Config.SlotSec = slotDur.Seconds()
		rep.Config.SLONs = slo.Nanoseconds()
		rep.Config.DurationSec = (time.Duration(schedule.NumSlots()) * *slotDur).Seconds()
	}
	for i, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "colddocs" {
			fmt.Fprintf(os.Stderr, "egload: mix %q (%d/%d): %d docs, %d joins...\n", name, i+1, len(names), *coldDocs, *coldJoins)
			res, err := runColdDocs()
			if err != nil {
				fmt.Fprintln(os.Stderr, "egload:", err)
				os.Exit(1)
			}
			c := res.Cold
			fmt.Fprintf(os.Stderr, "egload: mix %q: populated %d docs in %.1fs, %d cold joins, first-frame p50=%s p99=%s\n",
				name, c.Docs, c.PopulateSec, c.Joins,
				time.Duration(c.FirstFrameNs.P50), time.Duration(c.FirstFrameNs.P99))
			rep.Mixes = append(rep.Mixes, res)
			continue
		}
		spec, err := loadgen.MixByName(name, *writers, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "egload:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "egload: mix %q (%d/%d)...\n", name, i+1, len(names))
		res, err := loadgen.Run(loadgen.Config{
			Dial:         connectDoc,
			Mix:          spec,
			Docs:         *docs,
			DocPrefix:    *docPrefix,
			WritersTotal: *writersTotal,
			Conns:        *conns,
			Rate:         *rate,
			Duration:     *duration,
			Schedule:     schedule,
			SlotDur:      *slotDur,
			SLO:          *slo,
			Seed:         *seed,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "egload: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "egload:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "egload: mix %q: sent %d ev (%.0f ev/s), delivered %d, fanout p50=%s p99=%s\n",
			name, res.EventsSent, res.SendEPS, res.EventsDelivered,
			time.Duration(res.FanoutNs.P50), time.Duration(res.FanoutNs.P99))
		if res.Knee != nil {
			if res.Knee.Found {
				fmt.Fprintf(os.Stderr, "egload: mix %q: knee at slot %d (target %.0f ev/s, %s)\n",
					name, res.Knee.Slot, res.Knee.TargetEPS, res.Knee.Reason)
			} else {
				fmt.Fprintf(os.Stderr, "egload: mix %q: no knee found within the schedule\n", name)
			}
		}
		rep.Mixes = append(rep.Mixes, res)
	}
	if *metricsURL != "" {
		if m, err := fetchMetrics(*metricsURL); err != nil {
			fmt.Fprintf(os.Stderr, "egload: fetching server metrics: %v\n", err)
		} else {
			rep.ServerMetrics = m
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "egload:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "egload:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "egload: wrote %s (%d mixes)\n", *out, len(rep.Mixes))
}

func fetchMetrics(url string) (json.RawMessage, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics endpoint: %s", resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if !json.Valid(b) {
		return nil, fmt.Errorf("metrics endpoint returned invalid JSON")
	}
	return json.RawMessage(b), nil
}
