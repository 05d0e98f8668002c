package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"neobft/internal/bench"
	"neobft/internal/replication"
	"neobft/internal/tracing"
	"neobft/internal/transport"
)

const (
	// setupTimeout bounds the first commit of a fresh system.
	setupTimeout = 10 * time.Second
	// traceRate is the share of lat-phase operations the traced run
	// samples; enough for stable phase medians without filling the
	// per-node span buffers.
	traceRate = 0.1
	// latSlices and satSlices cut each phase's measured window into
	// sub-windows; timing metrics are medians over them.
	latSlices = 10
	satSlices = 16
	// maxSetupTrials caps the set-ups a run times: cheap set-ups vary by
	// 2-3x from one to the next, so their median needs many.
	maxSetupTrials = 41
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed int64
	// measure is the total measured time, split between the phases.
	measure time.Duration
	// setupTrials is how many systems are at least set up to time
	// setup_s; more are set up, up to maxSetupTrials, while all set-ups
	// so far took less than setupBudget. The last one is measured.
	setupTrials int
	setupBudget time.Duration
	// afterSetup, when set, runs on the measured system right after its
	// first commit (tests use it to inject faults).
	afterSetup func(sys *bench.System)
}

// phases splits the measured time: the lat phase gets 40%, the sat phase
// the rest. Warm-ups come on top. The lat phase's work is serial, so it
// runs on one vCPU at a time and feels that vCPU's contention in full;
// it gets that much time though it completes fewer ops.
func (c runConfig) phases() (lat, sat phaseSpec) {
	latMeasure := c.measure * 40 / 100
	lat = phaseSpec{name: "lat", clients: 1, window: 1, warmup: 300 * time.Millisecond, measure: latMeasure, slices: latSlices}
	sat = phaseSpec{name: "sat", clients: 2, window: satWindow, warmup: 500 * time.Millisecond, measure: c.measure - latMeasure, slices: satSlices}
	return lat, sat
}

// outcome is everything one measured system produced.
type outcome struct {
	traced   bool
	setup    []time.Duration
	lat, sat phaseResult
	executed []uint64
	problems []string
	layers   []metric // traced run only
}

// acked counts the acknowledged ops the system executed: the set-up
// probe and every completed op.
func (o *outcome) acked() uint64 {
	return 1 + uint64(o.lat.completed+o.sat.completed)
}

// setUp builds one system, preloads its app, and waits for its first
// commit. fab and app are non-nil in the traced run.
func setUp(w workload, seed int64, fab *fabricTap, app *appStats) (*bench.System, time.Duration, error) {
	var wrapApp func(replication.App) replication.App
	if app != nil {
		wrapApp = app.wrap
	}
	opts := w.options(seed, fab, wrapApp)
	if fab != nil {
		opts.TraceRate = traceRate
	}
	start := time.Now()
	sys := bench.Build(opts)
	if fab != nil && w.dropRate > 0 {
		// Same loss as Options.DropRate: sequencer→replica links only.
		fab.fabric().(transport.LossInjector).SetDrop(w.dropRate, fromSwitch(sys))
	}
	probe := w.probe()
	res, err := sys.NewClient(0).Invoke(probe, setupTimeout)
	elapsed := time.Since(start)
	if err == nil {
		if bad := w.check(probe, res); bad != "" {
			err = fmt.Errorf("first commit: %s", bad)
		}
	}
	if err != nil {
		sys.Close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return sys, elapsed, nil
}

func fromSwitch(sys *bench.System) func(from, to transport.NodeID) bool {
	return func(from, to transport.NodeID) bool {
		for _, h := range sys.Switches {
			if h.ID == from {
				return true
			}
		}
		return false
	}
}

// measure sets a workload's system up cfg.setupTrials times, then drives
// the lat and sat phases against the last one and checks its state.
func measure(w workload, cfg runConfig, traced bool) (*outcome, error) {
	out := &outcome{traced: traced}
	var (
		sys *bench.System
		fab *fabricTap
		app *appStats
	)
	var spent time.Duration
	for i := 0; i < cfg.setupTrials || (spent < cfg.setupBudget && i < maxSetupTrials); i++ {
		if sys != nil {
			sys.Close()
		}
		// Each set-up starts from a collected heap, as a fresh process
		// would, rather than paying for the previous system's garbage.
		runtime.GC()
		if traced {
			fab, app = newTap(w.udp, cfg.seed), &appStats{}
		}
		var d time.Duration
		var err error
		sys, d, err = setUp(w, cfg.seed, fab, app)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, d)
		spent += d
	}
	defer sys.Close()
	if cfg.afterSetup != nil {
		cfg.afterSetup(sys)
	}

	heap := watchHeap()
	latSpec, satSpec := cfg.phases()
	// In the traced run, window(dst) records into dst the ledger's change
	// over a phase's measured window.
	var dLat, dSat ledgerSnap
	window := func(dst *ledgerSnap) func(bool) {
		if !traced {
			return nil
		}
		var open ledgerSnap
		return func(opening bool) {
			if opening {
				open = readLedger(sys, fab, app)
			} else {
				*dst = readLedger(sys, fab, app).since(open)
			}
		}
	}
	out.lat = runPhase(sys, w, cfg.seed, latSpec, 1, heap, window(&dLat))
	var timelines []tracing.Timeline
	if traced {
		timelines = tracing.BuildTimelines(sys.DrainSpans()).Timelines
	}
	out.sat = runPhase(sys, w, cfg.seed, satSpec, 1+latSpec.clients, heap, window(&dSat))
	heap.stop()
	if traced {
		out.layers = perLayer(w, sys, dLat.plus(dSat), dSat, out, timelines)
	}

	for _, p := range []*phaseResult{&out.lat, &out.sat} {
		for _, bad := range p.wrong {
			out.problems = append(out.problems, fmt.Sprintf("%s phase: %s", p.spec.name, bad))
		}
	}
	executed, problem := checkExecuted(sys, out.acked())
	out.executed = executed
	if problem != "" {
		out.problems = append(out.problems, problem)
	}
	return out, nil
}

// checkExecuted waits (bounded) until every live replica has executed
// the same number of slots, at least one per acknowledged operation.
func checkExecuted(sys *bench.System, acked uint64) ([]uint64, string) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		var counts []uint64
		for i := 0; i < sys.NumReplicas; i++ {
			if sys.Alive(i) {
				counts = append(counts, sys.ExecutedAt(i))
			}
		}
		agree := len(counts) > 0
		for _, c := range counts {
			if c != counts[0] || c < acked {
				agree = false
			}
		}
		if agree {
			return counts, ""
		}
		if time.Now().After(deadline) {
			return counts, fmt.Sprintf("live replicas executed %v slots; want equal counts covering %d acknowledged ops", counts, acked)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metric is one reported number. n is its sample count; missing marks
// a per-op metric with no committed ops.
type metric struct {
	name    string
	unit    string
	value   float64
	n       int
	missing bool
}

func perOp(name, unit string, total float64, ops int) metric {
	if ops == 0 {
		return metric{name: name, unit: unit, missing: true}
	}
	return metric{name: name, unit: unit, value: total / float64(ops), n: ops}
}

func quantile(ds []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k])
}

func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(quantile(ds, 0.5))
}

// sliceMedian is the median over a phase's slices of f, which returns a
// slice's value and whether it has one.
func sliceMedian(name, unit string, p *phaseResult, n int, f func(s slice) (float64, bool)) metric {
	var vs []float64
	for _, s := range p.slices {
		if v, ok := f(s); ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return metric{name: name, unit: unit, n: n, missing: true}
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	v := vs[mid]
	if len(vs)%2 == 0 {
		v = (vs[mid-1] + vs[mid]) / 2
	}
	return metric{name: name, unit: unit, value: v, n: n}
}

func latQuantile(q float64) func(s slice) (float64, bool) {
	return func(s slice) (float64, bool) {
		if len(s.lats) == 0 {
			return 0, false
		}
		return quantile(s.lats, q) / 1e3, true
	}
}

func perSliceOp(total func(s slice) float64) func(s slice) (float64, bool) {
	return func(s slice) (float64, bool) {
		if s.ops == 0 {
			return 0, false
		}
		return total(s) / float64(s.ops), true
	}
}

// endToEnd derives the end-to-end metrics of an untraced outcome. Rates,
// latency percentiles and per-op costs are medians over the slices of a
// phase's measured window; n is the sample count over the whole window.
func endToEnd(o *outcome) []metric {
	lat, sat := &o.lat, &o.sat
	attempted := lat.attempted + sat.attempted
	latN, satN := len(lat.lats()), len(sat.lats())
	satOps := sat.inWindow()
	ms := []metric{
		{name: "setup_s", unit: "s", value: medianDuration(o.setup).Seconds(), n: len(o.setup)},
		sliceMedian("tput_ops", "ops/s", sat, satOps, func(s slice) (float64, bool) { return float64(s.ops) / s.dur.Seconds(), true }),
		sliceMedian("sat_p50_us", "us", sat, satN, latQuantile(0.50)),
		sliceMedian("sat_p99_us", "us", sat, satN, latQuantile(0.99)),
		sliceMedian("lat_p50_us", "us", lat, latN, latQuantile(0.50)),
		sliceMedian("lat_p99_us", "us", lat, latN, latQuantile(0.99)),
		{name: "fail_frac", unit: "frac", value: float64(lat.failed+lat.unfinished+sat.failed+sat.unfinished) / float64(attempted), n: attempted},
		{name: "stall_s", unit: "s", value: (lat.stall + sat.stall).Seconds(), n: lat.completed + sat.completed},
		sliceMedian("cpu_us_per_op", "us", sat, satOps, perSliceOp(func(s slice) float64 { return float64(s.cpu) / 1e3 })),
		sliceMedian("allocs_per_op", "count", sat, satOps, perSliceOp(func(s slice) float64 { return float64(s.mallocs) })),
		sliceMedian("alloc_kb_per_op", "KB", sat, satOps, perSliceOp(func(s slice) float64 { return float64(s.allocBytes) / 1024 })),
		sliceMedian("peak_heap_mb", "MB", sat, len(sat.slices), func(s slice) (float64, bool) { return float64(s.heapPeak) / 1e6, true }),
	}
	if attempted == 0 {
		ms[6] = metric{name: "fail_frac", unit: "frac", missing: true}
	}
	return ms
}
