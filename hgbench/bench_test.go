package main

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// testLen keeps the generated request lists short; the fixed parts of each
// workload (hot set, eval pool, session seeds) are generated in full.
const testLen = 24

func TestDigestIsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := buildWorkload(name, 7, testLen)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildWorkload(name, 7, testLen)
			if err != nil {
				t.Fatal(err)
			}
			c, err := buildWorkload(name, 8, testLen)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest() != b.digest() {
				t.Errorf("seed 7 gave two digests: %s, %s", a.digest(), b.digest())
			}
			if a.digest() == c.digest() {
				t.Errorf("seeds 7 and 8 gave the same digest %s", a.digest())
			}
		})
	}
}

// wireRecorder keeps every byte a client puts on the wire: request line,
// headers and body.
type wireRecorder struct {
	mu   sync.Mutex
	wire bytes.Buffer
	next http.Handler
}

func (rec *wireRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	rec.mu.Lock()
	rec.wire.WriteString(r.Method + " " + r.URL.String() + "\n")
	_ = r.Header.Write(&rec.wire)
	rec.wire.Write(body)
	rec.mu.Unlock()
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec.next.ServeHTTP(w, r)
}

// TestNothingButInputsOnTheWire drives a short run of every workload
// against hgserved's handler and checks that neither the workload's name
// nor its seed reaches the server.
func TestNothingButInputsOnTheWire(t *testing.T) {
	const seed = 918273645
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := buildWorkload(name, seed, testLen)
			if err != nil {
				t.Fatal(err)
			}
			cfg := server.Config{TenantRate: 1e6, TenantBurst: 1e6, DefaultTimeout: time.Minute}
			if w.lanes != nil {
				cfg.DataDir, cfg.SnapshotEvery = t.TempDir(), w.snapEvery
			}
			s := server.New(cfg, nil)
			defer s.FlushSessions()
			rec := &wireRecorder{next: s.Handler()}
			ts := httptest.NewServer(rec)
			defer ts.Close()

			all := &tally{}
			clients := []*client{newClient(0), newClient(1)}
			for i, c := range clients {
				c.attach(&hgserved{url: ts.URL})
				if w.lanes != nil {
					if err := createSession(c, w, i, all); err != nil {
						t.Fatal(err)
					}
				}
			}
			drive(clients, w.warm, nil, []int{0}, time.Time{}, all)
			drive(clients, w.shared, w.lanes, make([]int, max(1, len(w.lanes))), time.Time{}, all)
			all.runLater()
			if all.failed > 0 || all.attempted < testLen {
				t.Fatalf("%d of %d calls failed: %v", all.failed, all.attempted, all.errs)
			}
			wire := rec.wire.String()
			for _, leak := range []string{name, strconv.Itoa(seed)} {
				if strings.Contains(wire, leak) {
					t.Errorf("%q appears on the wire", leak)
				}
			}
		})
	}
}

// TestReplayCountsRepeat replays each workload twice at one seed; the
// counts of work done must agree exactly, and every in-process answer must
// pass the same checks as the end-to-end ones.
func TestReplayCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := buildWorkload(name, 3, testLen)
			if err != nil {
				t.Fatal(err)
			}
			a, err := runReplay(w, testLen, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b, err := runReplay(w, testLen, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*replayResult{a, b} {
				if r.failures.failed > 0 {
					t.Errorf("replay answers failed their checks: %v", r.failures.errs)
				}
			}
			if !maps.Equal(a.counts, b.counts) {
				t.Errorf("counts differ:\n%v\n%v", a.counts, b.counts)
			}
			if len(b.spans) == 0 || len(a.spans) != 0 {
				t.Errorf("traced pass recorded %d spans, untraced %d", len(b.spans), len(a.spans))
			}
		})
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics the
// command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range doc.Workloads {
		names = append(names, wl.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d)
		}
	}
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics, want %d", len(doc.EndToEnd), len(gated))
	}
	for i, m := range doc.EndToEnd {
		if d := gated[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, want %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, want %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}
