// Command perfbench is the repository's end-to-end benchmark. It builds
// systems with bench.Build, drives them through the public pipelined
// client API with its own closed-loop load generator, checks every reply,
// and prints end-to-end metrics (or, with -trace 1, a per-layer ledger
// from a separately traced run). The last line of standard output is a
// JSON summary:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload hm-echo --seed 1 --seconds 10 --trace 0
//
// Workloads: hm-echo, hm-ycsb, pbft-echo, pbft-udp, hm-loss, or all
// (hm-ycsb and pbft-echo, the ones BENCHMARK.json gates). See perfbench/README.md for
// what each metric means and which layer moves which end-to-end number.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// summaryE2E are the end-to-end metrics the JSON summary carries, the
// ones BENCHMARK.json gates. The rest are printed but not gated:
// fail_frac and stall_s read exactly 0 on every gated workload (the
// summary's attempted and failed counts carry fail_frac), the p99
// latencies vary by 40-60% between runs on a shared 2-core host, and on
// hm-ycsb sat_p50_us jumps with the share of ops queued behind a
// checkpoint snapshot. The sat phase is a closed loop, so its mean
// latency is fixed by tput_ops, which is gated.
var summaryE2E = map[string]bool{
	"setup_s": true, "tput_ops": true, "lat_p50_us": true,
	"cpu_us_per_op": true, "allocs_per_op": true, "alloc_kb_per_op": true, "peak_heap_mb": true,
}

// A run sets its system up at least setupTrials times, and more (see
// runConfig) while the set-ups took less than setupBudget in total.
const (
	setupTrials = 11
	setupBudget = 1500 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "hm-echo, hm-ycsb, pbft-echo, pbft-udp, hm-loss, or all (hm-ycsb and pbft-echo)")
	seed := flag.Int64("seed", 1, "seed for the simulated network and the generated operations")
	seconds := flag.Float64("seconds", 10, "measured seconds, split between the lat and sat phases")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics; 1 adds a traced run and prints the per-layer ledger")
	flag.Parse()
	var ws []workload
	for _, w := range workloads {
		if w.name == *name || (*name == "all" && w.gated) {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{
		seed:        *seed,
		measure:     time.Duration(*seconds * float64(time.Second)),
		setupTrials: setupTrials,
		setupBudget: setupBudget,
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	sum := summary{Correct: true, Metrics: map[string]jsonValue{}}
	for _, w := range ws {
		rep, err := runWorkload(w, cfg, *trace == 1)
		if err != nil {
			out.Flush()
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		rep.print(out, cfg)
		sum.add(rep, len(ws) > 1)
	}
	enc, err := json.Marshal(sum)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(out, string(enc))
	if !sum.Correct {
		out.Flush()
		os.Exit(1)
	}
}

// report is one workload's result: the untraced outcome and, with
// tracing, the traced outcome whose ledger is printed.
type report struct {
	w       workload
	plain   *outcome
	traced  *outcome
	metrics []metric // what the summary carries
}

func runWorkload(w workload, cfg runConfig, traced bool) (*report, error) {
	rep := &report{w: w}
	if !traced {
		o, err := measure(w, cfg, false)
		if err != nil {
			return nil, err
		}
		rep.plain = o
		for _, m := range endToEnd(o) {
			if summaryE2E[m.name] {
				rep.metrics = append(rep.metrics, m)
			}
		}
		return rep, nil
	}
	// The untraced reference run needs no repeated set-ups: only its
	// tput_ops is used, for tracing.overhead_frac. Each of the two runs
	// gets half the measured time, so a traced run takes as long as an
	// untraced one.
	once := cfg
	once.setupTrials, once.setupBudget = 1, 0
	once.measure = cfg.measure / 2
	o, err := measure(w, once, false)
	if err != nil {
		return nil, err
	}
	rep.plain = o
	t, err := measure(w, once, true)
	if err != nil {
		return nil, err
	}
	rep.traced = t
	overhead := metric{name: "tracing.overhead_frac", unit: "frac", n: t.sat.inWindow(), missing: true}
	if ref := o.sat.tput(); ref > 0 {
		overhead.value, overhead.missing = 1-t.sat.tput()/ref, false
	}
	t.layers = append(t.layers, overhead)
	rep.metrics = t.layers
	return rep, nil
}

func (r *report) outcomes() []*outcome {
	if r.traced != nil {
		return []*outcome{r.plain, r.traced}
	}
	return []*outcome{r.plain}
}

func (r *report) print(out *bufio.Writer, cfg runConfig) {
	transport := "simnet"
	if r.w.udp {
		transport = "udp"
	}
	fmt.Fprintf(out, "# perfbench workload=%s protocol=%s transport=%s drop_rate=%g kv=%v\n",
		r.w.name, r.w.protocol, transport, r.w.dropRate, r.w.kv)
	fmt.Fprintf(out, "# provenance %s seed=%d seconds=%g\n", provenance(), cfg.seed, cfg.measure.Seconds())
	for _, o := range r.outcomes() {
		run := "untraced"
		if o.traced {
			run = "traced"
		}
		for _, p := range []*phaseResult{&o.lat, &o.sat} {
			fmt.Fprintf(out, "# %s phase=%s clients=%d window=%d warmup_s=%g window_s=%.3f attempted=%d completed=%d failed=%d unfinished=%d latency_samples=%d in_window=%d stall_s=%.3f\n",
				run, p.spec.name, p.spec.clients, p.spec.window, p.spec.warmup.Seconds(), p.window().Seconds(),
				p.attempted, p.completed, p.failed, p.unfinished, len(p.lats()), p.inWindow(), p.stall.Seconds())
		}
		fmt.Fprintf(out, "# %s setup_trials=%d executed=%v acked=%d\n", run, len(o.setup), o.executed, o.acked())
		for _, p := range o.problems {
			fmt.Fprintf(out, "# %s INCORRECT: %s\n", run, p)
		}
	}
	for _, m := range endToEnd(r.plain) {
		printMetric(out, "e2e", m)
	}
	if r.traced != nil {
		for _, m := range r.traced.layers {
			printMetric(out, "layer", m)
		}
	}
}

func printMetric(out *bufio.Writer, kind string, m metric) {
	if m.missing || !finite(m.value) {
		fmt.Fprintf(out, "%s %-34s %14s %-6s n=%d\n", kind, m.name, "missing", m.unit, m.n)
		return
	}
	fmt.Fprintf(out, "%s %-34s %14.4f %-6s n=%d\n", kind, m.name, m.value, m.unit, m.n)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// summary is the JSON last line.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// jsonValue is one metric; a missing metric has a null value.
type jsonValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

func (s *summary) add(r *report, prefixed bool) {
	for _, o := range r.outcomes() {
		// Operations still unfinished when a phase was accounted count as
		// failed: they did not complete.
		s.Attempted += o.lat.attempted + o.sat.attempted
		s.Failed += o.lat.failed + o.lat.unfinished + o.sat.failed + o.sat.unfinished
		if len(o.problems) > 0 {
			s.Correct = false
		}
	}
	for _, m := range r.metrics {
		name := m.name
		if prefixed {
			name = r.w.name + "." + name
		}
		v := jsonValue{Unit: m.unit}
		if !m.missing && finite(m.value) {
			x := m.value
			v.Value = &x
		}
		s.Metrics[name] = v
	}
}

// commit is the git commit the binary was built from; run.sh sets it
// with -ldflags "-X main.commit=...".
var commit = "unknown"

// provenance describes the host and build a result came from.
func provenance() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
