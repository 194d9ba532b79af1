// Command hgbench is the repository's benchmark. It starts a freshly built
// hgserved on loopback, drives one named workload closed-loop from two
// clients for a fixed time, checks every answer against an independent
// reference, and prints the end-to-end metrics. With -trace 1 it also
// replays the same requests in-process, layer by layer, and prints the
// per-layer metrics. Run it through run.sh, which builds both binaries:
//
//	bash hgbench/run.sh --workload schema_analyze --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A wrong answer or a
// recovery mismatch makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type config struct {
	root     string
	hgserved string
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// Run shape. Setup and recovery are repeated, since one sample of a
// sub-second phase is noise: setup_s is the median of the setups and
// recover_s the fastest restart.
const (
	setupReps   = 5
	recoverReps = 31
	tailCalls   = 256 // session calls between the drained restart and SIGKILL
)

// listRate bounds each workload's request rate on a fast host; the request
// list holds this many calls per measured second (per client for
// session lanes), so it cannot run out.
var listRate = map[string]int{"schema_analyze": 250, "eval_join": 150, "workspace_session": 1500}

// replayLen is how many requests the traced replay walks.
var replayLen = map[string]int{"schema_analyze": 160, "eval_join": 120, "workspace_session": 1200}

func main() {
	cfg := config{}
	var traceFlag int
	flag.StringVar(&cfg.root, "root", ".", "checkout root (holds go.mod and .bench_build)")
	flag.StringVar(&cfg.hgserved, "hgserved", ".bench_build/hgserved", "hgserved binary")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per workload")
	flag.IntVar(&traceFlag, "trace", 0, "1: report the per-layer metrics of a traced replay instead")
	probeOnly := flag.Bool("probe", false, "time the host-speed probe, print the times as JSON, and exit")
	flag.Parse()
	if *probeOnly {
		out, _ := json.Marshal(probeSeries())
		fmt.Println(string(out))
		return
	}
	cfg.trace = traceFlag == 1

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(130)
	}()

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	final := summary{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := runWorkload(c)
		if err != nil {
			stopAll()
			fmt.Fprintln(os.Stderr, "hgbench:", name+":", err)
			os.Exit(1)
		}
		final.Attempted += res.attempted
		final.Failed += res.failed
		if res.failed > 0 {
			final.Correct = false
			code = 1
		}
		for k, v := range res.metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	out, _ := json.Marshal(final)
	fmt.Println(string(out))
	os.Exit(code)
}

// summary is the result line, the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]metricValue
}

// runWorkload makes one benchmark run of cfg.workload.
func runWorkload(cfg config) (*result, error) {
	work, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	genStart := time.Now()
	n := listRate[cfg.workload] * cfg.seconds
	w, err := buildWorkload(cfg.workload, cfg.seed, max(n, 1000))
	if err != nil {
		return nil, err
	}
	m := collectMeta(cfg, w)
	fmt.Printf("hgbench workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	m.print()
	fmt.Printf("request_digest %s %s (generated in %.2fs)\n", w.name, w.digest(), time.Since(genStart).Seconds())

	// The load clients run on one P: on a small host, two Ps of client
	// goroutines and GC workers competing with hgserved for the CPUs made
	// run-to-run figures markedly less steady. The in-process replays get
	// every CPU back, as hgserved has them.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)

	all := &tally{} // every call and check of the run
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(i)
	}
	dataDir := filepath.Join(work, "data")

	// Probes time the host's speed while hgserved is down or idle: before
	// setup, around every segment of the measured phase, and after the
	// last restart (see calibrate.go).
	setupProbes, err := childProbes()
	if err != nil {
		return nil, err
	}

	// Set up several times; the last server stays for the measured phase.
	var srv *hgserved
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if srv != nil {
			srv.kill()
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		var d time.Duration
		if srv, d, err = setup(cfg, w, clients, dataDir, all); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()

	before, err := readScrape(srv)
	if err != nil {
		return nil, err
	}
	measured := &tally{}
	pos := make([]int, max(1, len(w.lanes)))
	segs, err := measure(clients, w, pos, cfg.seconds, measured)
	if err != nil {
		return nil, err
	}
	after, err := readScrape(srv)
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	scraped := scrapeLayers(before, after, dirBytes(dataDir), w, pos)

	var boots []float64
	if w.lanes != nil {
		boots, err = recoverSessions(cfg, w, clients, &srv, dataDir, pos, all)
	} else {
		boots, err = restart(cfg, w, &srv, dataDir)
	}
	if err != nil {
		return nil, err
	}
	srv.kill()
	srv = nil
	endProbes, err := childProbes()
	if err != nil {
		return nil, err
	}

	measured.runLater()
	all.runLater()
	attempted, failed := measured.attempted+all.attempted, measured.failed+all.failed
	for _, e := range append(measured.errs, all.errs...) {
		fmt.Fprintln(os.Stderr, "hgbench: wrong answer:", e)
	}

	ps := phase(measured, segs)
	setupSpeed := hostSpeed(append(setupProbes, segs[0].probes[0]...))
	recoverSpeed := hostSpeed(append(segs[len(segs)-1].probes[1], endProbes...))
	e2e := map[string]float64{
		"throughput_rps": ps.throughput,
		"latency_p50_ms": ps.p50,
		"latency_p99_ms": ps.p99,
		"fail_ratio":     ratio(float64(measured.failed), float64(measured.attempted)),
		"setup_s":        median(setups) * setupSpeed,
		"server_rss_mb":  rss,
		"recover_s":      slices.Min(boots) * recoverSpeed, // interference only adds to a restart
	}
	ps.print(measured.attempted, segs)
	fmt.Printf("setup runs %v s at speed %.4f; restarts %v s at speed %.4f\n",
		fmtSeconds(setups), setupSpeed, fmtSeconds(boots), recoverSpeed)
	for _, d := range endToEnd {
		fmt.Printf("e2e %-18s %-16s %14.4f %s\n", w.name, d.name, e2e[d.name], d.unit)
	}

	if w.lanes != nil {
		fmt.Printf("store compactions in the measured phase: %.0f over %d sessions (-snap-every %d)\n",
			scraped["store.compactions"], len(w.lanes), w.snapEvery)
	}
	res := &result{attempted: attempted, failed: failed, metrics: map[string]metricValue{}}
	if !cfg.trace {
		for _, d := range endToEnd {
			if d.gated {
				res.metrics[d.name] = metricValue{e2e[d.name], d.unit}
			}
		}
		return res, nil
	}

	runtime.GOMAXPROCS(procs)
	layers, err := traceLayers(cfg, w, work, e2e["latency_p50_ms"], m)
	if err != nil {
		return nil, err
	}
	for k, v := range scraped {
		layers.values[k] = v
	}
	res.failed += layers.failed
	res.attempted += layers.attempted
	printLayers(w.name, layers)
	for _, d := range perLayer {
		res.metrics[d.name] = metricValue{layers.values[d.name], d.unit}
	}
	return res, nil
}

// serverArgs is the exact hgserved flag line of a run: quotas and the
// deadline far above what two closed-loop clients can reach, every other
// flag at its default.
func serverArgs(w *workload, dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-rate", "1000000", "-burst", "1000000", "-timeout", "60s"}
	if w.lanes != nil {
		args = append(args, "-data", dataDir, "-snap-every", strconv.Itoa(w.snapEvery))
	}
	return args
}

// setup starts hgserved and brings it to the measured phase's starting
// state: sessions created and seeded, or the warm-up requests answered.
// Its duration runs from exec to the last setup answer.
func setup(cfg config, w *workload, clients []*client, dataDir string, t *tally) (*hgserved, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(cfg.hgserved, serverArgs(w, dataDir))
	if err != nil {
		return nil, 0, err
	}
	for _, c := range clients {
		c.attach(srv)
	}
	if len(w.creates) > 0 {
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = createSession(c, w, i, t)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				srv.kill()
				return nil, 0, err
			}
		}
	}
	if len(w.warm) > 0 {
		drive(clients, w.warm, nil, []int{0}, time.Time{}, t)
	}
	return srv, time.Since(start), nil
}

// createSession creates and seeds client i's workspace, then settles it
// with one read whose answer is checked against the model.
func createSession(c *client, w *workload, i int, t *tally) error {
	status, body, err := c.do(call{method: "POST", path: "/v1/workspaces", body: w.creates[i]})
	if err != nil {
		return err
	}
	var r struct {
		ID string `json:"id"`
	}
	if status != 200 || json.Unmarshal(body, &r) != nil || r.ID == "" {
		return fmt.Errorf("create session: status %d: %.200s", status, body)
	}
	c.sid = r.ID
	m, err := modelAt(w.creates[i], w.lanes[i], 0)
	if err != nil {
		return err
	}
	t.record(0, nil, checkSession(c, m, false))
	return nil
}

// restart measures recovery for the stateless workloads: SIGKILL, then
// exec to first healthy answer, several times.
func restart(cfg config, w *workload, srv **hgserved, dataDir string) ([]float64, error) {
	var boots []float64
	for r := 0; r < recoverReps; r++ {
		(*srv).kill()
		s, err := startServer(cfg.hgserved, serverArgs(w, dataDir))
		if err != nil {
			*srv = nil
			return nil, err
		}
		*srv = s
		boots = append(boots, s.boot.Seconds())
	}
	return boots, nil
}

// recoverSessions is the session workload's crash phase. A graceful drain
// first cuts a snapshot, so the WAL tail at the crash is exactly the edits
// of the next tailCalls calls per client, whatever the measured phase did.
// Then hgserved is SIGKILLed and restarted on the same directory several
// times; every restart must recover each session at its last acknowledged
// epoch, with the same edges and edge ids.
func recoverSessions(cfg config, w *workload, clients []*client, srv **hgserved, dataDir string, pos []int, t *tally) ([]float64, error) {
	if err := (*srv).stop(); err != nil {
		return nil, err
	}
	s, err := startServer(cfg.hgserved, serverArgs(w, dataDir))
	if err != nil {
		*srv = nil
		return nil, err
	}
	*srv = s
	tail := make([][]call, len(w.lanes))
	for i, l := range w.lanes {
		tail[i] = l[:min(len(l), pos[i]+tailCalls)]
	}
	for _, c := range clients {
		c.attach(s)
	}
	drive(clients, nil, tail, pos, time.Time{}, t)

	var boots []float64
	for r := 0; r < recoverReps; r++ {
		(*srv).kill()
		s, err := startServer(cfg.hgserved, serverArgs(w, dataDir))
		if err != nil {
			*srv = nil
			return nil, err
		}
		*srv = s
		boots = append(boots, s.boot.Seconds())
		for i, c := range clients {
			c.attach(s)
			m, err := modelAt(w.creates[i], w.lanes[i], pos[i])
			if err != nil {
				return nil, err
			}
			t.record(0, nil, checkSession(c, m, r == recoverReps-1))
		}
	}
	return boots, nil
}

// checkSession compares a live session with the model: epoch, edge count,
// verdict, and the snapshot edge by edge in id order. With probe, one more
// edge is added and must receive the id the model predicts, which shows the
// id allocator survived too.
func checkSession(c *client, m *sessionModel, probe bool) error {
	status, body, err := c.do(call{method: "GET", path: ""})
	if err != nil {
		return err
	}
	var info struct {
		Epoch   uint64 `json:"epoch"`
		Edges   int    `json:"edges"`
		Acyclic bool   `json:"acyclic"`
	}
	if status != 200 || json.Unmarshal(body, &info) != nil {
		return fmt.Errorf("session %s: status %d: %.200s", c.sid, status, body)
	}
	if info.Epoch != m.epoch || info.Edges != m.alive() || info.Acyclic != (m.cover >= 0) {
		return fmt.Errorf("session %s: epoch %d, %d edges, acyclic %v; model has %d, %d, %v",
			c.sid, info.Epoch, info.Edges, info.Acyclic, m.epoch, m.alive(), m.cover >= 0)
	}
	status, body, err = c.do(call{method: "POST", path: "/query", body: []byte(`{"op":"snapshot"}`)})
	if err != nil {
		return err
	}
	var snap struct {
		Epoch uint64     `json:"epoch"`
		Edges [][]string `json:"edges"`
	}
	if status != 200 || json.Unmarshal(body, &snap) != nil {
		return fmt.Errorf("session %s snapshot: status %d: %.200s", c.sid, status, body)
	}
	want := m.snapshot()
	if snap.Epoch != m.epoch || len(snap.Edges) != len(want) {
		return fmt.Errorf("session %s snapshot: epoch %d with %d edges, want %d with %d", c.sid, snap.Epoch, len(snap.Edges), m.epoch, len(want))
	}
	for i, e := range snap.Edges {
		slices.Sort(e)
		if !slices.Equal(e, want[i]) {
			return fmt.Errorf("session %s snapshot edge %d: %v, want %v", c.sid, i, e, want[i])
		}
	}
	if !probe {
		return nil
	}
	e := &edit{kind: "add", nodes: []string{"probe"}}
	probeCall := editCall(e, m)
	status, body, err = c.do(probeCall)
	if err != nil {
		return err
	}
	_, err = probeCall.check(status, body)
	return err
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
