package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/server"
)

// metricDef names one reported metric. For per-layer metrics, moves is the
// end-to-end metric and workload a change to that layer should move, and
// flat the workload where the prediction is no change.
type metricDef struct {
	name, unit, better string
	gated              bool // end-to-end metric with a regression bound in BENCHMARK.json
	moves, flat        string
}

// endToEnd metrics are measured with tracing off and all printed. Only the
// gated ones carry a regression bound in BENCHMARK.json: on a shared 2-vCPU
// host, ten runs of the others spread (IQR over median) 0.15-0.40 —
// sub-millisecond and tail latencies follow the host's scheduling, restart
// times are a few milliseconds, and schema_analyze's RSS grows with however
// much work the host allowed — past the largest bound the benchmark may
// set. In a closed loop with a fixed number of clients, throughput is the
// reciprocal of mean latency, so a latency regression still shows in the
// gated throughput. fail_ratio is 0 on a correct build; it is carried by
// the result's failed and attempted counts.
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "1/s", better: "higher", gated: true},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "fail_ratio", unit: "ratio", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower", gated: true},
	{name: "server_rss_mb", unit: "MiB", better: "lower"},
	{name: "recover_s", unit: "s", better: "lower"},
}

// perLayer metrics come from the traced replay (times are mean self time
// per call of that layer), except those read as deltas of hgserved's own
// /statsz and /metricsz counters over the measured phase.
var perLayer = []metricDef{
	{"server.handle_ms", "ms", "lower", false, "latency_p50_ms, all workloads", "none"},
	{"server.transport_ms", "ms", "lower", false, "latency_p50_ms on workspace_session", "none"},
	{"server.decode_ms", "ms", "lower", false, "latency_p50_ms on eval_join", "workspace_session"},
	{"server.encode_ms", "ms", "lower", false, "latency_p50_ms on eval_join", "workspace_session"},
	{"server.respcache_hit_ratio", "ratio", "higher", false, "throughput_rps on workspace_session", "n/a elsewhere"},
	{"server.refused", "count", "lower", false, "fail_ratio, all workloads (must be 0)", "none"},
	{"hypergraph.parse_ms", "ms", "lower", false, "throughput_rps, latency_p50_ms on schema_analyze", "eval_join"},
	{"hypergraph.fingerprint_ms", "ms", "lower", false, "throughput_rps, latency_p50_ms on schema_analyze", "eval_join"},
	{"engine.lookup_ms", "ms", "lower", false, "throughput_rps, server_rss_mb on schema_analyze", "eval_join"},
	{"engine.memo_hit_ratio", "ratio", "higher", false, "throughput_rps, server_rss_mb on schema_analyze", "eval_join"},
	{"engine.intern_hit_ratio", "ratio", "higher", false, "latency_p50_ms on workspace_session", "schema_analyze"},
	{"mcs.run_ms", "ms", "lower", false, "latency_p50_ms on schema_analyze", "eval_join"},
	{"jointree.reducer_ms", "ms", "lower", false, "latency_p50_ms on schema_analyze", "eval_join"},
	{"spectrum.classify_ms", "ms", "lower", false, "latency_p99_ms on schema_analyze", "eval_join"},
	{"analysis.facet_waits", "count", "lower", false, "latency_p99_ms on schema_analyze", "eval_join"},
	{"exec.load_ms", "ms", "lower", false, "latency_p50_ms on eval_join", "schema_analyze"},
	{"exec.reduce_ms", "ms", "lower", false, "throughput_rps, latency_p50_ms on eval_join", "schema_analyze, workspace_session"},
	{"exec.eval_ms", "ms", "lower", false, "throughput_rps, latency_p50_ms on eval_join", "schema_analyze, workspace_session"},
	{"exec.step_busy_ms", "ms", "lower", false, "latency_p99_ms on eval_join", "schema_analyze"},
	{"exec.step_wait_ms", "ms", "lower", false, "latency_p99_ms on eval_join", "schema_analyze"},
	{"exec.rows_in", "count", "lower", false, "eval_join (exact count, not a speed)", "none"},
	{"exec.keep_ratio", "ratio", "lower", false, "eval_join (exact count, not a speed)", "none"},
	{"exec.join_rows", "count", "lower", false, "eval_join (exact count, not a speed)", "none"},
	{"pool.refused_ratio", "ratio", "lower", false, "latency_p99_ms on eval_join", "workspace_session"},
	{"dynamic.edit_ms", "ms", "lower", false, "latency_p50_ms on workspace_session", "schema_analyze"},
	{"dynamic.settle_ms", "ms", "lower", false, "latency_p50_ms on workspace_session", "schema_analyze"},
	{"dynamic.snapshot_ms", "ms", "lower", false, "latency_p99_ms on workspace_session", "eval_join"},
	{"dynamic.forest_ms", "ms", "lower", false, "latency_p99_ms on workspace_session", "eval_join"},
	{"dynamic.classify_ms", "ms", "lower", false, "latency_p99_ms on workspace_session", "eval_join"},
	{"store.append_us", "us", "lower", false, "latency_p50_ms on workspace_session", "all others"},
	{"store.compactions", "count", "lower", false, "latency_p99_ms on workspace_session", "all others"},
	{"store.compact_ms", "ms", "lower", false, "latency_p99_ms on workspace_session", "all others"},
	{"store.disk_bytes_per_edit", "B", "lower", false, "space only; not an end-to-end metric", "none"},
	{"store.recover_ms", "ms", "lower", false, "recover_s on workspace_session", "none"},
	{"trace.overhead_ratio", "ratio", "lower", false, "none; the instrument's own cost", "none"},
}

// spanMetrics maps per-layer time metrics to the replay span they read.
var spanMetrics = map[string]string{
	"server.decode_ms":          "server.decode",
	"server.encode_ms":          "server.encode",
	"hypergraph.parse_ms":       "hypergraph.parse",
	"hypergraph.fingerprint_ms": "hypergraph.fingerprint",
	"engine.lookup_ms":          "engine.lookup",
	"mcs.run_ms":                "mcs.run",
	"jointree.reducer_ms":       "jointree.reducer",
	"spectrum.classify_ms":      "spectrum.classify",
	"exec.load_ms":              "exec.load",
	"exec.reduce_ms":            "exec.reduce",
	"exec.eval_ms":              "exec.eval",
	"dynamic.edit_ms":           "dynamic.edit",
	"dynamic.settle_ms":         "dynamic.settle",
	"dynamic.snapshot_ms":       "dynamic.snapshot",
	"dynamic.forest_ms":         "dynamic.forest",
	"dynamic.classify_ms":       "dynamic.classify",
}

// scrapeLayers derives the per-layer metrics hgserved counts itself.
func scrapeLayers(before, after *scrape, disk int64, w *workload, pos []int) map[string]float64 {
	d := func(name string) float64 { return delta(before, after, name) }
	refused := 0.0
	for _, k := range []string{"shed", "quotaDenied", "deadlines"} {
		refused += after.stats[k] - before.stats[k]
	}
	hits, misses := d("server_respcache_hits_total"), d("server_respcache_misses_total")
	ihits, imisses := d("engine_intern_hits_total"), d("engine_intern_misses_total")
	granted, denied := d("pool_acquire_granted_total"), d("pool_acquire_refused_total")
	out := map[string]float64{
		"server.respcache_hit_ratio": ratio(hits, hits+misses),
		"server.refused":             refused,
		"engine.intern_hit_ratio":    ratio(ihits, ihits+imisses),
		"analysis.facet_waits":       d("facet_wait_total"),
		"pool.refused_ratio":         ratio(denied, granted+denied),
		"store.append_us":            1e6 * ratio(d("store_append_seconds_sum"), d("store_append_seconds_count")),
		"store.compactions":          d("store_compact_seconds_count"),
		"store.compact_ms":           1e3 * ratio(d("store_compact_seconds_sum"), d("store_compact_seconds_count")),
	}
	if w.lanes != nil {
		// Every acknowledged edit, seeding included, bumped its session's
		// epoch once.
		edits := 0.0
		for i, l := range w.lanes {
			if m, err := modelAt(w.creates[i], l, pos[i]); err == nil {
				edits += float64(m.epoch)
			}
		}
		out["store.disk_bytes_per_edit"] = ratio(float64(disk), edits)
	}
	return out
}

// layerReport is the traced replay's outcome for one workload.
type layerReport struct {
	values            map[string]float64
	self              map[string]time.Duration
	calls             map[string]int
	total             time.Duration
	requests          int
	counts            map[string]int64
	attempted, failed int
}

// traceLayers replays the first replayLen requests in-process four times:
// untraced, traced (whose spans give the per-layer times), untraced again,
// and through hgserved's handler (server.handle_ms). The three direct
// passes must count exactly the same work.
func traceLayers(cfg config, w *workload, work string, p50 float64, m *meta) (*layerReport, error) {
	n := replayLen[w.name]
	plain, err := runReplay(w, n, false, filepath.Join(work, "replay-plain"))
	if err != nil {
		return nil, err
	}
	traced, err := runReplay(w, n, true, filepath.Join(work, "replay-traced"))
	if err != nil {
		return nil, err
	}
	// A second untraced pass after the traced one, so that warming of the
	// process favours neither side of the overhead ratio.
	plain2, err := runReplay(w, n, false, filepath.Join(work, "replay-plain2"))
	if err != nil {
		return nil, err
	}
	scfg := server.Config{TenantRate: 1e6, TenantBurst: 1e6, DefaultTimeout: time.Minute}
	if w.lanes != nil {
		scfg.DataDir, scfg.SnapshotEvery = filepath.Join(work, "replay-handler"), w.snapEvery
	}
	durs, ht, err := handlerReplay(w, n, scfg)
	if err != nil {
		return nil, err
	}

	rep := &layerReport{values: map[string]float64{}, counts: traced.counts, requests: traced.requests}
	rep.attempted = 4 * traced.requests
	for _, t := range []*tally{plain.failures, traced.failures, plain2.failures, ht} {
		rep.failed += t.failed
		for _, e := range t.errs {
			fmt.Fprintln(os.Stderr, "hgbench: wrong answer:", e)
		}
	}
	if !maps.Equal(plain.counts, traced.counts) || !maps.Equal(plain2.counts, traced.counts) {
		rep.failed++
		fmt.Fprintf(os.Stderr, "hgbench: replay counts differ between passes: %v vs %v\n", plain.counts, traced.counts)
	}

	rep.self, rep.calls, rep.total = selfTimes(traced.spans)
	for metric, name := range spanMetrics {
		if c := rep.calls[name]; c > 0 {
			rep.values[metric] = float64(rep.self[name]) / 1e6 / float64(c)
		}
	}
	hms := make([]float64, len(durs))
	for i, d := range durs {
		hms[i] = float64(d) / 1e6
	}
	v := rep.values
	v["server.handle_ms"] = median(hms)
	v["server.transport_ms"] = p50 - v["server.handle_ms"]
	v["engine.memo_hit_ratio"] = traced.memoHit
	if c := traced.counts["exec.calls"]; c > 0 {
		v["exec.step_busy_ms"] = float64(traced.execBusy) / 1e6 / float64(c)
		v["exec.step_wait_ms"] = float64(traced.execWait) / 1e6 / float64(c)
	}
	v["exec.rows_in"] = float64(traced.counts["exec.rows_in"])
	v["exec.keep_ratio"] = ratio(float64(traced.counts["exec.rows_out"]), float64(traced.counts["exec.rows_in"]))
	v["exec.join_rows"] = float64(traced.counts["exec.join_rows"])
	v["store.recover_ms"] = float64(traced.recover) / 1e6
	v["trace.overhead_ratio"] = ratio(2*float64(traced.wall), float64(plain.wall+plain2.wall))

	path := filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	err = writeTrace(path, map[string]any{
		"workload": w.name, "meta": m, "requests": traced.requests, "counts": traced.counts, "spans": traced.spans,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace written to %s (%d spans)\n", path, len(traced.spans))
	return rep, nil
}

// printLayers prints the layer table: each span's self time and share of
// the replayed request time, then every per-layer metric with the
// end-to-end metric it should move and where it should stay flat.
func printLayers(workload string, rep *layerReport) {
	fmt.Printf("layer table %s: %d replayed requests, %.3f ms of request time\n",
		workload, rep.requests, float64(rep.total)/1e6)
	fmt.Printf("  %-24s %8s %12s %12s %7s\n", "span", "calls", "self_ms", "ms/call", "share")
	names := slices.Sorted(maps.Keys(rep.self))
	for _, n := range names {
		label := n
		if n == "request" {
			label = "request (unattributed)"
		}
		fmt.Printf("  %-24s %8d %12.3f %12.4f %6.2f%%\n", label, rep.calls[n],
			float64(rep.self[n])/1e6, float64(rep.self[n])/1e6/float64(rep.calls[n]),
			100*ratio(float64(rep.self[n]), float64(rep.total)))
	}
	fmt.Printf("  counts: %v\n", rep.counts)
	fmt.Printf("  %-28s %14s %-6s %-52s %s\n", "per-layer metric", "value", "unit", "moves", "flat on")
	for _, d := range perLayer {
		fmt.Printf("  %-28s %14.4f %-6s %-52s %s\n", d.name, rep.values[d.name], d.unit, d.moves, d.flat)
	}
}

// meta identifies the host, toolchain, code and configuration of a result;
// runs compare only on the same host.
type meta struct {
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	ServerFlags  string `json:"hgserved_flags"`
}

func collectMeta(cfg config, w *workload) *meta {
	m := &meta{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: cfg.seed, Seconds: cfg.seconds, CPUModel: "unknown", Commit: "unknown (not a git checkout)",
		ServerFlags: strings.Join(serverArgs(w, "<tmp>/data"), " "),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
			m.Commit = strings.TrimSpace(string(out))
		}
	}
	m.SourceDigest = sourceDigest(cfg.root)
	return m
}

func (m *meta) print() {
	fmt.Printf("meta cpu_model=%q num_cpu=%d gomaxprocs=%d (hgserved, replays; load clients 1) go=%s commit=%s source_digest=%s seed=%d seconds=%d\n",
		m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Commit, m.SourceDigest, m.Seed, m.Seconds)
	fmt.Printf("meta hgserved_flags=%q\n", m.ServerFlags)
}

// sourceDigest hashes the Go sources and module files of the checkout, so
// a result names the exact code measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			return nil
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
