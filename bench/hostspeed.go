package main

import (
	"sort"
	"sync"
	"time"
)

// The host the benchmark was sized on is a 2-vCPU virtual machine whose
// physical cores are shared with other tenants. For seconds to minutes
// at a time their load slows every instruction the benchmark executes,
// by up to a third and in CPU time as much as in wall time, so neither
// clock alone can tell a slower program from a busier host. A hostMeter
// therefore times a fixed reference kernel between the passes of a run,
// and every timing metric is reported at the reference host speed: a
// duration is multiplied, and a rate divided, by the kernel's rate
// around it over refRate. The kernel belongs to the benchmark and is the
// same on every commit compared, so the correction depends on the host
// alone. Each report notes the uncorrected values beside.

const (
	// kernelRows sizes the kernel's table at 512 KiB, within the
	// caches the simulator's predictor tables live in.
	kernelRows = 1 << 16
	// kernelSteps is the kernel's work per thread in one repetition,
	// about 60 ms on the sizing host.
	kernelSteps = 16_000_000
	// refRate is the reference host speed, in kernel steps per
	// microsecond per thread (the sizing host runs about 280).
	refRate = 300.0
	// sampleEvery is the least time between two samples taken by
	// tick; a sample after a longer gap repeats the kernel once per
	// sampleEvery elapsed, up to maxReps, so the kernel takes about a
	// sixteenth of the run whatever the length of its passes.
	sampleEvery = time.Second
	maxReps     = 8
)

// kernelSink keeps the kernel's result alive.
var kernelSink struct {
	sync.Mutex
	v uint64
}

// kernel is the reference work: pseudo-random updates of a table, with
// a branch on what it reads that no predictor can learn.
func kernel(steps int) {
	tab := make([]uint64, kernelRows)
	x := uint64(1)
	for i := 0; i < steps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 40) & (kernelRows - 1)
		tab[j] ^= x
		if tab[(j*7)&(kernelRows-1)]&1 == 0 {
			x += 3
		}
	}
	kernelSink.Lock()
	kernelSink.v += x
	kernelSink.Unlock()
}

// hostSample is one timing of the kernel: when it ended and the host's
// mean speed over it relative to the reference.
type hostSample struct {
	at    time.Time
	speed float64
}

// hostMeter samples the host's speed with the kernel, run on as many
// threads at once as the workload keeps busy.
type hostMeter struct {
	threads int
	samples []hostSample
}

func newHostMeter(threads int) *hostMeter {
	return &hostMeter{threads: threads}
}

// sample times reps repetitions of the kernel on every thread at once.
func (m *hostMeter) sample(reps int) {
	t0 := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < m.threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel(reps * kernelSteps)
		}()
	}
	wg.Wait()
	at := time.Now()
	rate := float64(reps*kernelSteps) / (float64(at.Sub(t0).Nanoseconds()) / 1e3)
	m.samples = append(m.samples, hostSample{at: at, speed: rate / refRate})
}

// tick samples when no sample is younger than sampleEvery, for longer
// the longer the gap. Call it before each pass, and sample once more
// after the last.
func (m *hostMeter) tick() {
	n := len(m.samples)
	if n == 0 {
		m.sample(1)
		return
	}
	if gap := time.Since(m.samples[n-1].at); gap >= sampleEvery {
		m.sample(min(int(gap/sampleEvery), maxReps))
	}
}

// speed returns the host's speed over [t0, t1] relative to the
// reference: the mean of the last sample taken by t0 and the first
// taken from t1 on (either alone when the other is missing).
func (m *hostMeter) speed(t0, t1 time.Time) float64 {
	i := sort.Search(len(m.samples), func(i int) bool { return m.samples[i].at.After(t0) })
	j := sort.Search(len(m.samples), func(j int) bool { return !m.samples[j].at.Before(t1) })
	switch {
	case i > 0 && j < len(m.samples):
		return (m.samples[i-1].speed + m.samples[j].speed) / 2
	case i > 0:
		return m.samples[i-1].speed
	case j < len(m.samples):
		return m.samples[j].speed
	}
	return 1
}

// refSeconds returns the length of [t0, t1] at the reference speed.
func (m *hostMeter) refSeconds(t0, t1 time.Time) float64 {
	return t1.Sub(t0).Seconds() * m.speed(t0, t1)
}

// refDurations returns the length of each span at the reference speed,
// in seconds.
func (m *hostMeter) refDurations(spans [][2]time.Time) []float64 {
	out := make([]float64, len(spans))
	for i, sp := range spans {
		out[i] = m.refSeconds(sp[0], sp[1])
	}
	return out
}

// speeds returns every sample's speed.
func (m *hostMeter) speeds() []float64 {
	out := make([]float64, len(m.samples))
	for i, s := range m.samples {
		out[i] = s.speed
	}
	return out
}
