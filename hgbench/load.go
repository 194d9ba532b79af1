package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hgserved is one running server process.
type hgserved struct {
	cmd    *exec.Cmd
	url    string
	boot   time.Duration // exec to the first 200 from /healthz
	stderr *lockedBuffer
	done   chan struct{} // closed once the process has been waited for
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() > 64<<10 {
		b.buf.Reset() // keep the tail only; it is read on failure
	}
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// running tracks every started server so an early exit can stop them all.
var running sync.Map

// startServer execs bin and waits for its first healthy answer. hgserved
// prints its bound address on stdout, which is how the port is learned.
func startServer(bin string, args []string) (*hgserved, error) {
	s := &hgserved{stderr: &lockedBuffer{}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	running.Store(s, true)
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("hgserved exited before listening: %v\n%s", err, s.stderr)
	}
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		_ = s.cmd.Wait() // the exit status of a killed server carries nothing
		close(s.done)
	}()
	s.url = "http://" + strings.TrimSpace(strings.TrimPrefix(line, "listening on "))
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > time.Minute {
			s.kill()
			return nil, fmt.Errorf("hgserved not healthy after a minute: %v\n%s", err, s.stderr)
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.boot = time.Since(start)
	return s, nil
}

// kill ends the process with SIGKILL — no drain, no final snapshot.
func (s *hgserved) kill() {
	_ = s.cmd.Process.Kill() // fails only when the process is already gone
	<-s.done
	running.Delete(s)
}

// stop asks for a graceful drain (SIGTERM), which flushes a final snapshot
// of every durable session, and kills the process if it overstays.
func (s *hgserved) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
		running.Delete(s)
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("hgserved did not drain within 30s")
	}
}

func stopAll() {
	running.Range(func(k, _ any) bool {
		k.(*hgserved).kill()
		return true
	})
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func (s *hgserved) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// client is one closed-loop caller: one keep-alive connection, its own
// tenant, and (for session workloads) its own workspace.
type client struct {
	hc     *http.Client
	base   string
	tenant string
	sid    string
}

func newClient(i int) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tenant: "tenant-" + strconv.Itoa(i)}
}

// attach points the client at a (re)started server.
func (c *client) attach(s *hgserved) {
	c.hc.CloseIdleConnections()
	c.base = s.url
}

// do sends one call and reads the whole answer.
func (c *client) do(cl call) (status int, body []byte, err error) {
	path := cl.path
	if !strings.HasPrefix(path, "/v1/") {
		path = "/v1/workspaces/" + c.sid + path
	}
	var rd io.Reader
	if cl.body != nil {
		rd = bytes.NewReader(cl.body)
	}
	req, err := http.NewRequest(cl.method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	if cl.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// tally is the outcome of a set of calls.
type tally struct {
	mu        sync.Mutex
	lat       []time.Duration
	done      []time.Time  // completion time of each call, beside lat
	bad       map[int]bool // calls answered wrongly, by index into lat
	attempted int
	failed    int
	errs      []string
	later     []laterCheck
	exhausted bool
}

func (t *tally) record(d time.Duration, later func() error, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.lat = append(t.lat, d)
	t.done = append(t.done, time.Now())
	if later != nil {
		t.later = append(t.later, laterCheck{len(t.lat) - 1, later})
	}
	if err != nil {
		t.failCall(len(t.lat)-1, err)
	}
}

// laterCheck is a deferred check of the call at index call.
type laterCheck struct {
	call  int
	check func() error
}

// failCall marks call i answered wrongly.
func (t *tally) failCall(i int, err error) {
	t.fail(err)
	if t.bad == nil {
		t.bad = map[int]bool{}
	}
	t.bad[i] = true
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
}

// runLater makes the deferred checks; a failed one turns its call into a
// failure.
func (t *tally) runLater() {
	for _, l := range t.later {
		if err := l.check(); err != nil {
			t.failCall(l.call, err)
		}
	}
	t.later = nil
}

func send(c *client, cl call, t *tally) {
	start := time.Now()
	status, body, err := c.do(cl)
	d := time.Since(start)
	var later func() error
	if err == nil {
		later, err = cl.check(status, body)
	}
	t.record(d, later, err)
}

// drive runs the clients closed-loop until stop (zero: until the calls run
// out). Shared calls are taken in list order by whichever client is free;
// lanes are per client. pos holds each lane's next index (index 0 for the
// shared list) and is advanced in place. It returns the elapsed time.
func drive(clients []*client, shared []call, lanes [][]call, pos []int, stop time.Time, t *tally) time.Duration {
	var next atomic.Int64
	next.Store(int64(pos[0]))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop.IsZero() || time.Now().Before(stop) {
				var cl call
				if lanes == nil {
					k := int(next.Add(1) - 1)
					if k >= len(shared) {
						break
					}
					cl = shared[k]
				} else {
					if pos[i] >= len(lanes[i]) {
						break
					}
					cl = lanes[i][pos[i]]
					pos[i]++
				}
				send(c, cl, t)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if lanes == nil {
		pos[0] = min(int(next.Load()), len(shared))
		t.exhausted = !stop.IsZero() && pos[0] >= len(shared)
	} else {
		for i := range lanes {
			t.exhausted = t.exhausted || (!stop.IsZero() && pos[i] >= len(lanes[i]))
		}
	}
	return elapsed
}

// scrape is one reading of hgserved's own counters.
type scrape struct {
	stats   map[string]float64 // /statsz
	metrics map[string]float64 // /metricsz counters, gauges, histogram sums and counts
}

func readScrape(s *hgserved) (*scrape, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	get := func(path string) ([]byte, error) {
		resp, err := hc.Get(s.url + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	out := &scrape{stats: map[string]float64{}, metrics: map[string]float64{}}
	raw, err := get("/statsz")
	if err != nil {
		return nil, err
	}
	var st map[string]any
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	for k, v := range st {
		if f, ok := v.(float64); ok {
			out.stats[k] = f
		}
	}
	if raw, err = get("/metricsz"); err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out.metrics[f[0]] = v
		}
	}
	return out, nil
}

// delta is after minus before for one /metricsz series.
func delta(before, after *scrape, name string) float64 {
	return after.metrics[name] - before.metrics[name]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		p := dir + "/" + e.Name()
		if e.IsDir() {
			n += dirBytes(p)
		} else if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}
