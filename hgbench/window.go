package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// The measured phase runs as segments of segmentLen, closed-loop, with a
// host-speed probe before, between and after them while hgserved idles. A
// segment's figures are scaled by the speed measured on either side of it,
// so a change of the host's speed during the run is caught within a few
// seconds.
const segmentLen = 2 * time.Second

// segment is one stretch of the measured phase.
type segment struct {
	start, end time.Time
	probes     [2][]float64 // probe times before and after
	speed      float64
}

// measure runs the measured phase: seconds of load in segments, the
// clients' positions advancing in pos.
func measure(clients []*client, w *workload, pos []int, seconds int, t *tally) ([]segment, error) {
	n := max(1, int(time.Duration(seconds)*time.Second/segmentLen))
	probes, err := childProbes()
	if err != nil {
		return nil, err
	}
	segs := make([]segment, n)
	for k := range segs {
		start := time.Now()
		elapsed := drive(clients, w.shared, w.lanes, pos, start.Add(segmentLen), t)
		if t.exhausted {
			return nil, fmt.Errorf("request list ran out before %ds; raise listRate", seconds)
		}
		next, err := childProbes()
		if err != nil {
			return nil, err
		}
		segs[k] = segment{start: start, end: start.Add(elapsed), probes: [2][]float64{probes, next}}
		segs[k].speed = hostSpeed(append(slices.Clone(probes), next...))
		probes = next
	}
	return segs, nil
}

// phaseStats are the measured phase's end-to-end figures at the reference
// host speed, and the same unscaled.
type phaseStats struct {
	throughput, p50, p99 float64
	raw                  [3]float64
	samples              int
	counts               []int // correct completions per segment
}

// latencyMs is call i's latency; a wrong answer misses every latency limit.
func latencyMs(t *tally, i int) float64 {
	if t.bad[i] {
		return math.Inf(1)
	}
	return float64(t.lat[i]) / 1e6
}

// phase pools the segments: throughput divides each segment's correct
// completions by its speed, latencies are multiplied by it.
func phase(t *tally, segs []segment) phaseStats {
	ps := phaseStats{counts: make([]int, len(segs))}
	var lats, rawLats []float64
	var scaled, seconds float64
	for i, done := range t.done {
		k := slices.IndexFunc(segs, func(s segment) bool { return !done.Before(s.start) && !done.After(s.end) })
		if k < 0 {
			continue
		}
		lats = append(lats, latencyMs(t, i)*segs[k].speed)
		rawLats = append(rawLats, latencyMs(t, i))
		if !t.bad[i] {
			ps.counts[k]++
			scaled += 1 / segs[k].speed
		}
	}
	correct := 0
	for k, s := range segs {
		seconds += s.end.Sub(s.start).Seconds()
		correct += ps.counts[k]
	}
	slices.Sort(lats)
	slices.Sort(rawLats)
	ps.samples = len(lats)
	ps.throughput = scaled / seconds
	ps.p50, ps.p99 = percentile(lats, 0.50), percentile(lats, 0.99)
	ps.raw = [3]float64{float64(correct) / seconds, percentile(rawLats, 0.50), percentile(rawLats, 0.99)}
	return ps
}

func (ps phaseStats) print(attempted int, segs []segment) {
	speeds := make([]string, len(segs))
	for k, s := range segs {
		speeds[k] = fmt.Sprintf("%.3f", s.speed)
	}
	fmt.Printf("measured %d requests in %d segments; completions %v at speeds %v; %d latencies, %d beyond p99\n",
		attempted, len(segs), ps.counts, speeds, ps.samples, ps.samples-int(math.Ceil(0.99*float64(ps.samples))))
	fmt.Printf("unscaled: throughput %.4f 1/s, p50 %.4f ms, p99 %.4f ms\n", ps.raw[0], ps.raw[1], ps.raw[2])
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}
