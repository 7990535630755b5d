package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Host speed on a shared machine drifts, by far more than any change to
// the program that the benchmark should see: the same pass can take 8 s
// in one run and 20 s a few minutes later. So every pass samples the
// host's speed while it runs, with a fixed loop of the benchmark's own,
// and the pass time it reports is scaled to a reference host speed. The
// loop is an interpreter like the simulator's VM — a switch dispatching
// small ops over registers and a 512 KiB memory — because the host's drift
// slows it the way it slows the VM.
//
// A workload whose pass is many short calls (sweep's cells, attack's
// trials) samples between them, from the pass's own goroutine, so nothing
// of the benchmark runs beside the program. A workload whose pass is one
// long call (serve's fleet) samples from a second goroutine while the call
// runs, and times each sample by its thread's CPU clock, so that waiting
// for a CPU the program holds does not count as a slow host.

// sampleEvery is how much measured work runs between two host-speed
// samples; a sample takes about 4 ms, so sampling costs about 4%.
const sampleEvery = 100 * time.Millisecond

// refSampleSeconds is one sample's duration at the reference host speed:
// the median sample on the 2-vCPU host the benchmark was calibrated on. It
// only sets the scale of the reported times, which read as seconds on that
// host.
const refSampleSeconds = 0.0040

// probeOp is one instruction of the calibration loop's program.
type probeOp struct{ code, a, b byte }

// probeProgram mixes register arithmetic, loads, stores and a branch.
var probeProgram = []probeOp{{0, 0, 1}, {1, 1, 2}, {2, 2, 0}, {3, 0, 3}, {4, 3, 1}, {5, 0, 0}, {3, 4, 0}, {2, 4, 1}}

const probeMask = 1<<16 - 1

var (
	probeMem  [probeMask + 1]uint64
	probeSink uint64 // keeps the loop's result live
)

// probeHost runs the calibration loop once and returns how long it took by
// the wall clock and by the CPU clock of the thread it ran on.
func probeHost() (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, cpu0 := time.Now(), threadCPU()
	var regs [8]uint64
	regs[1] = 7
	for it := 0; it < 150_000; it++ {
		for _, o := range probeProgram {
			switch o.code {
			case 0:
				regs[o.a] += regs[o.b] + 1
			case 1:
				regs[o.a] ^= regs[o.b] << 3
			case 2:
				probeMem[regs[o.a]&probeMask] = regs[o.b]
			case 3:
				regs[o.a] += probeMem[(regs[o.b]*31)&probeMask]
			case 4:
				regs[o.a] = regs[o.a]*2654435761 + regs[o.b]
			case 5:
				if regs[o.a]&1 == 0 {
					regs[7]++
				}
			}
		}
	}
	probeSink += regs[0] + regs[7]
	return time.Since(start), threadCPU() - cpu0
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// meter times one pass, or a run's set-ups, unit by unit and samples the
// host's speed while they run.
type meter struct {
	work    time.Duration   // time inside the units
	units   []time.Duration // each unit's time
	probe   time.Duration   // time inside the samples
	samples int
	since   time.Duration // work since the last sample
}

// sample takes, by the wall clock, one host-speed sample per sampleEvery
// of work since the last, and at least one.
func (m *meter) sample() {
	for n := max(1, int(m.since/sampleEvery)); n > 0; n-- {
		wall, _ := probeHost()
		m.probe += wall
		m.samples++
	}
	m.since = 0
}

// unit runs and times one of many short units of work, sampling the host
// before it when sampleEvery of work has run since the last sample, or
// when it is the first unit.
func (m *meter) unit(f func() error) error {
	if m.samples == 0 || m.since >= sampleEvery {
		m.sample()
	}
	start := time.Now()
	err := f()
	d := time.Since(start)
	m.add(d)
	m.since += d
	return err
}

// finish samples the host after the last short unit.
func (m *meter) finish() {
	if m.since > 0 || m.samples == 0 {
		m.sample()
	}
}

// during runs and times one long unit of work while a second goroutine
// samples the host every sampleEvery, each sample timed by its thread's
// CPU clock. A unit too short for a sample gets one after it.
func (m *meter) during(f func() error) error {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			_, cpu := probeHost()
			m.probe += cpu
			m.samples++
		}
	}()
	start := time.Now()
	err := f()
	m.add(time.Since(start))
	close(stop)
	<-done
	if m.samples == 0 {
		_, cpu := probeHost()
		m.probe += cpu
		m.samples++
	}
	return err
}

func (m *meter) add(d time.Duration) {
	m.work += d
	m.units = append(m.units, d)
}

// seconds returns the units' time in seconds as measured.
func (m *meter) seconds() float64 { return m.work.Seconds() }

// hostFactor is how much slower than the reference the host ran during the
// samples (above 1: slower).
func (m *meter) hostFactor() float64 {
	return m.probe.Seconds() / float64(m.samples) / refSampleSeconds
}

// scaled returns the units' time in seconds at the reference host speed.
func (m *meter) scaled() float64 { return m.seconds() / m.hostFactor() }

// scaledMedianUnit returns the median unit's time in seconds at the
// reference host speed.
func (m *meter) scaledMedianUnit() float64 {
	s := make([]float64, len(m.units))
	for i, d := range m.units {
		s[i] = d.Seconds()
	}
	return median(s) / m.hostFactor()
}
