package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
)

// A call is one HTTP request of a workload together with the check of its
// answer. Session-scoped calls carry a path relative to the client's
// workspace ("/edges", "/query", ...); the client prefixes its session.
type call struct {
	method string
	path   string
	body   []byte
	op     string // replay dispatch: analyze, jointree, classify, reduce, eval, add, remove, rename, query
	check  checkFn
	edit   *edit // the session change an edit call makes
}

// checkFn judges one response. An error marks the answer wrong; a non-nil
// later runs after the measured phase, for checks too costly to make while
// the clock runs (join-tree verification over a re-parsed schema).
type checkFn func(status int, body []byte) (later func() error, err error)

// workload is the fully generated input of one run: everything hgserved
// will receive, derived from the seed alone.
type workload struct {
	name string

	// shared is one request list the clients draw from in order
	// (schema_analyze, eval_join); lanes holds one list per client
	// (workspace_session, where each client owns a session).
	shared []call
	lanes  [][]call

	// warm is sent during setup, after which the measured phase starts.
	warm []call

	// creates holds each client's session-creation body.
	creates [][]byte

	snapEvery int // -snap-every handed to hgserved (session workloads)
}

const numClients = 2

var workloadNames = []string{"schema_analyze", "eval_join", "workspace_session"}

// buildWorkload generates the named workload's inputs from seed. n is the
// request-list length: shared-list length, or per-client lane length.
func buildWorkload(name string, seed int64, n int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed ^ int64(nameHash(name))))
	switch name {
	case "schema_analyze":
		return buildSchemaAnalyze(rng, n), nil
	case "eval_join":
		return buildEvalJoin(rng, n)
	case "workspace_session":
		return buildWorkspaceSession(rng, n), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func nameHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// digest fingerprints every byte the workload will put on the wire, in
// order: equal digests mean identical request lists.
func (w *workload) digest() string {
	h := sha256.New()
	add := func(cs []call) {
		for _, c := range cs {
			fmt.Fprintf(h, "%s %s %d\n", c.method, c.path, len(c.body))
			h.Write(c.body)
		}
	}
	add(w.warm)
	for _, b := range w.creates {
		fmt.Fprintf(h, "create %d\n", len(b))
		h.Write(b)
	}
	add(w.shared)
	for _, l := range w.lanes {
		add(l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// replayOrder is the serial order the in-process replay walks: the first n
// shared calls, or the lanes interleaved one call at a time. The lane of each
// call is returned beside it.
func (w *workload) replayOrder(n int) (calls []call, lane []int) {
	if w.shared != nil {
		n = min(n, len(w.shared))
		return w.shared[:n], make([]int, n)
	}
	for i := 0; len(calls) < n; i++ {
		for l := range w.lanes {
			if i < len(w.lanes[l]) && len(calls) < n {
				calls = append(calls, w.lanes[l][i])
				lane = append(lane, l)
			}
		}
	}
	return calls, lane
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and slices are marshalled here
	}
	return b
}

// stratum draws a value from the i-th of k equal slices of [lo, hi], so a
// set of k draws covers the range evenly whatever the seed.
func stratum(rng *rand.Rand, i, k, lo, hi int) int {
	w := float64(hi-lo) / float64(k)
	return lo + int(w*(float64(i)+rng.Float64()))
}

func base36(n int) string { return strconv.FormatInt(int64(n), 36) }

// errorCode extracts the error code from hgserved's error envelope.
func errorCode(body []byte) string {
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Error.Code
}

func wantStatus(status, want int, body []byte) error {
	if status != want {
		return fmt.Errorf("status %d, want %d: %.200s", status, want, body)
	}
	return nil
}
