package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Host speed. On a shared virtual machine the speed of the host drifts by
// up to twofold over minutes as other guests come and go, far more than
// any change worth measuring. A run therefore times a fixed probe at
// several points while hgserved is down or idle, and states its time
// figures at the speed of a reference host:
//
//	speed = probeRef / median probe time
//
// Throughput is divided by speed; latencies, setup_s and recover_s are
// multiplied by it. The probe sorts and hashes fixed keys on every CPU at
// once, in a process of its own; it uses the standard library alone, so no
// change to the code under test can move it. Raw figures and the speeds
// are printed beside.

// probeRef is the probe's median time on an uncontended 2-vCPU Intel Xeon
// virtual machine. It only sets the scale of the reported figures.
const probeRef = 42 * time.Millisecond

const (
	probeWarm   = 2 // probes discarded while the heap and caches warm up
	probeRounds = 4 // probes kept at each probe point
)

// probeInput is the probe's fixed input: pseudo-random keys.
var probeInput = sync.OnceValue(func() []uint32 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, 1<<18)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	return keys
})

// probeOnce sorts a copy of the keys and hashes them: fixed work that
// allocates nothing, so garbage collection cannot blur its time.
func probeOnce(keys, buf []uint32, raw []byte) byte {
	copy(buf, keys)
	slices.Sort(buf)
	for i, k := range buf {
		raw[4*i], raw[4*i+1], raw[4*i+2], raw[4*i+3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
	}
	sum := sha256.Sum256(raw)
	return sum[0]
}

// probe times the fixed work run on every CPU at once.
func probe(bufs [][]uint32, raws [][]byte) time.Duration {
	keys := probeInput()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeOnce(keys, bufs[i], raws[i])
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// probeSeries runs probeRounds probes.
func probeSeries() []float64 {
	n := runtime.NumCPU()
	bufs, raws := make([][]uint32, n), make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]uint32, len(probeInput()))
		raws[i] = make([]byte, 4*len(probeInput()))
	}
	for range probeWarm {
		probe(bufs, raws)
	}
	out := make([]float64, probeRounds)
	for i := range out {
		out[i] = float64(probe(bufs, raws))
	}
	return out
}

// childProbes runs probeSeries in a fresh process of this binary, so the
// benchmark's own heap (request lists, answers) cannot slow the probe or
// spare it garbage collection.
func childProbes() ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := exec.Command(self, "-probe").Output()
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	var probes []float64
	if err := json.Unmarshal(out, &probes); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	return probes, nil
}

// hostSpeed turns the probe times of a run into its speed relative to the
// reference host.
func hostSpeed(probes []float64) float64 {
	return float64(probeRef) / median(probes)
}
