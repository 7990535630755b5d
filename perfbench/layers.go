package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"r2c/internal/codegen"
	"r2c/internal/defense"
	"r2c/internal/exec"
	"r2c/internal/image"
	"r2c/internal/rt"
	"r2c/internal/sim"
	"r2c/internal/telemetry"
	"r2c/internal/tir"
	"r2c/internal/vm"
)

// layerStats gathers one replay's per-layer figures. Counts are gathered
// as the replay runs; timings are read from the traced replay's spans by
// fromSpans.
type layerStats struct {
	// Correctness of the replay's own modeled outputs.
	ops, failed int
	problems    []string

	pcodeOps               int
	cacheHits, cacheMisses uint64
	instAlloc              uint64 // heap bytes allocated by the traced instantiations
	instr                  uint64
	tlbHits, tlbMisses     uint64

	compile, link, predecode time.Duration
	lookupsUs                []float64 // cache lookups that hit
	instantiateUs            []float64
	vmTime                   time.Duration
	vmRunUs                  []float64

	unattributedPct float64
	overheadPct     float64
	extra           map[string]metric // workload-specific layer metrics
}

// fromSpans reads the timings every workload shares out of a traced
// replay's spans. vmSpan names the spans that time VM execution, each
// covering runsPerSpan machine runs of equal share.
func (ls *layerStats) fromSpans(spans map[string][]telemetry.SpanData, vmSpan string, runsPerSpan int) {
	ls.compile = total(spans["codegen.Compile"])
	ls.link = total(spans["image.Link"])
	ls.predecode = total(spans["image.RebuildCode"])
	for _, d := range spans["exec.Cache.Image"] {
		if d.Attrs["hit"] == true {
			ls.lookupsUs = append(ls.lookupsUs, float64(d.DurNs)/1e3)
		}
	}
	ls.instantiateUs = durationsUs(spans["sim.NewProcessFromImage"])
	ls.vmTime = total(spans[vmSpan])
	for _, d := range spans[vmSpan] {
		for k := 0; k < runsPerSpan; k++ {
			ls.vmRunUs = append(ls.vmRunUs, float64(d.DurNs)/1e3/float64(runsPerSpan))
		}
	}
}

// total sums the spans' durations.
func total(spans []telemetry.SpanData) time.Duration {
	var sum int64
	for _, d := range spans {
		sum += d.DurNs
	}
	return time.Duration(sum)
}

// durationsUs lists the spans' durations in microseconds.
func durationsUs(spans []telemetry.SpanData) []float64 {
	out := make([]float64, len(spans))
	for i, d := range spans {
		out[i] = float64(d.DurNs) / 1e3
	}
	return out
}

// metrics returns the per-layer metric set every workload reports.
func (ls *layerStats) metrics() map[string]metric {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return map[string]metric{
		"codegen.compile_ms":       {ms(ls.compile), "ms"},
		"image.link_ms":            {ms(ls.link - ls.predecode), "ms"},
		"pcode.predecode_ms":       {ms(ls.predecode), "ms"},
		"pcode.ops":                {float64(ls.pcodeOps), "count"},
		"exec.cache_hit_ratio":     {ratio(ls.cacheHits, ls.cacheHits+ls.cacheMisses), "ratio"},
		"exec.cache_lookup_us":     {quantile(ls.lookupsUs, 0.5), "us"},
		"rt.instantiate_us.p50":    {quantile(ls.instantiateUs, 0.5), "us"},
		"rt.instantiate_us.p99":    {quantile(ls.instantiateUs, 0.99), "us"},
		"rt.instantiate_alloc_kib": {float64(ls.instAlloc) / 1024 / math.Max(1, float64(len(ls.instantiateUs))), "KiB"},
		"rt.processes":             {float64(len(ls.instantiateUs)), "count"},
		"vm.exec_s":                {ls.vmTime.Seconds(), "s"},
		"vm.ns_per_instr":          {float64(ls.vmTime.Nanoseconds()) / math.Max(1, float64(ls.instr)), "ns"},
		"vm.mem_per_instr":         {ratio(ls.tlbHits+ls.tlbMisses, ls.instr), "ratio"},
		"vm.tlb_hit_ratio":         {ratio(ls.tlbHits, ls.tlbHits+ls.tlbMisses), "ratio"},
		"vm.runs":                  {float64(len(ls.vmRunUs)), "count"},
		"vm.run_us.p50":            {quantile(ls.vmRunUs, 0.5), "us"},
		"trace.unattributed_pct":   {ls.unattributedPct, "%"},
		"trace.overhead_pct":       {ls.overheadPct, "%"},
	}
}

func (ls *layerStats) addExtra(name string, v float64, unit string) {
	if ls.extra == nil {
		ls.extra = map[string]metric{}
	}
	ls.extra[name] = metric{v, unit}
}

// noteVM folds one finished machine run into the VM figures.
func (ls *layerStats) noteVM(res *vm.Result) {
	ls.instr += res.Instructions
	ls.tlbHits += res.TLBHits
	ls.tlbMisses += res.TLBMisses
}

// lookup times one build cache lookup, marking the span with whether it hit.
func lookup(tr *tracer, cache *exec.Cache, m *tir.Module, cfg defense.Config, seed uint64) (*image.Image, bool, error) {
	sp := tr.begin("exec.Cache.Image", true)
	img, hit, err := cache.Image(m, cfg, seed)
	sp.SetAttr("hit", hit)
	tr.end(sp)
	return img, hit, err
}

// build replays one image build layer by layer — codegen.Compile, then
// image.Link, then a second predecode through (*image.Image).RebuildCode
// to price the predecode share of Link — and checks that the result
// matches the image the build cache produced for the same key.
func (ls *layerStats) build(tr *tracer, m *tir.Module, cfg defense.Config, seed uint64, cached *image.Image) error {
	sp := tr.begin("codegen.Compile", true)
	prog, err := codegen.Compile(m, cfg, seed)
	tr.end(sp)
	if err != nil {
		return err
	}
	// The link seed derivation is sim.BuildImage's; the comparison below
	// catches any drift between the two.
	sp = tr.begin("image.Link", true)
	img, err := image.Link(prog, seed*0x9e3779b97f4a7c15+1)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("image.RebuildCode", true)
	img.RebuildCode()
	tr.end(sp)
	ls.pcodeOps += img.Code.NumOps()
	if cached != nil && (img.Code.NumOps() != cached.Code.NumOps() || img.Entry != cached.Entry || img.TextBase != cached.TextBase) {
		ls.problems = append(ls.problems, "layer-by-layer build differs from the cached build of "+m.Name+"/"+cfg.Name)
	}
	return nil
}

// instantiate times sim.NewProcessFromImage and, while tracing, the heap
// it allocates.
func (ls *layerStats) instantiate(tr *tracer, img *image.Image, seed uint64, obs *telemetry.Observer) (*rt.Process, error) {
	sp := tr.begin("sim.NewProcessFromImage", true)
	var before uint64
	if tr.on() {
		before = heapAllocBytes()
	}
	proc, err := sim.NewProcessFromImage(img, seed, obs)
	if tr.on() {
		ls.instAlloc += heapAllocBytes() - before
	}
	tr.end(sp)
	return proc, err
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes returns the cumulative bytes the Go heap has allocated.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
