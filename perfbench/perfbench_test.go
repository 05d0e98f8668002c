package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"neobft/internal/bench"
	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/transport"
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tiny is a run short enough for a unit test.
func tiny() runConfig {
	return runConfig{seed: 7, measure: 400 * time.Millisecond, setupTrials: 1}
}

func checkIdentity(t *testing.T, p *phaseResult) {
	t.Helper()
	if p.attempted < 1 {
		t.Errorf("%s phase attempted no operations", p.spec.name)
	}
	if got := p.completed + p.failed + p.unfinished; got != p.attempted {
		t.Errorf("%s phase: completed %d + failed %d + unfinished %d = %d, attempted %d",
			p.spec.name, p.completed, p.failed, p.unfinished, got, p.attempted)
	}
}

func TestAccountingIdentity(t *testing.T) {
	w, _ := workloadByName("hm-echo")
	o, err := measure(w, tiny(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*phaseResult{&o.lat, &o.sat} {
		checkIdentity(t, p)
		if p.failed != 0 || p.unfinished != 0 {
			t.Errorf("%s phase: %d failed, %d unfinished on a healthy system", p.spec.name, p.failed, p.unfinished)
		}
		if p.inWindow() == 0 || len(p.lats()) == 0 {
			t.Errorf("%s phase measured nothing", p.spec.name)
		}
	}
	if len(o.problems) != 0 {
		t.Errorf("problems on a healthy system: %v", o.problems)
	}
}

// TestBlackholeStallReported drops every packet after set-up: the stall
// must show in stall_s and fail_frac, and the bounded drain must return
// long before the client's 30s operation timeout.
func TestBlackholeStallReported(t *testing.T) {
	w, _ := workloadByName("hm-echo")
	cfg := tiny()
	cfg.afterSetup = func(sys *bench.System) {
		sys.Net.(transport.LossInjector).SetDrop(1, nil)
	}
	start := time.Now()
	o, err := measure(w, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > opTimeout/2 {
		t.Errorf("stalled run took %v; the drain should be bounded by %v per phase", el, drainBound)
	}
	for _, p := range []*phaseResult{&o.lat, &o.sat} {
		checkIdentity(t, p)
		if p.completed != 0 || p.unfinished == 0 {
			t.Errorf("%s phase: completed %d unfinished %d; want 0 and > 0", p.spec.name, p.completed, p.unfinished)
		}
	}
	ms := map[string]metric{}
	for _, m := range endToEnd(o) {
		ms[m.name] = m
	}
	if m := ms["stall_s"]; m.value < 2*drainBound.Seconds() {
		t.Errorf("stall_s = %v; want at least both phases' drains (%v)", m.value, 2*drainBound.Seconds())
	}
	if m := ms["fail_frac"]; m.value != 1 {
		t.Errorf("fail_frac = %v; want 1", m.value)
	}
	if m := ms["tput_ops"]; m.value != 0 {
		t.Errorf("tput_ops = %v; want 0", m.value)
	}
	if m := ms["cpu_us_per_op"]; !m.missing {
		t.Errorf("cpu_us_per_op with no commits reads %v; want missing", m.value)
	}
}

// TestMetricNames runs every workload BENCHMARK.json lists, untraced and
// traced, and checks that the summary carries exactly the metrics the
// file names and that every printed name is well formed.
func TestMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every listed workload twice")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	gated := 0
	for _, w := range workloads {
		if w.gated {
			gated++
		}
	}
	if gated != len(spec.Workloads) {
		t.Errorf("%d gated workloads, BENCHMARK.json lists %d", gated, len(spec.Workloads))
	}
	for _, ws := range spec.Workloads {
		w, ok := workloadByName(ws.Name)
		if !ok || !w.gated {
			t.Errorf("BENCHMARK.json lists %q, which is not a gated workload", ws.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, err := runWorkload(w, tiny(), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			got := map[string]metric{}
			for _, m := range rep.metrics {
				got[m.name] = m
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: summary has %d metrics, BENCHMARK.json %d", w.name, traced, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, m.Name)
				} else if g.unit != m.Unit {
					t.Errorf("%s: %s unit %q, BENCHMARK.json %q", w.name, m.Name, g.unit, m.Unit)
				}
			}
			all := append(endToEnd(rep.plain), rep.metrics...)
			for _, m := range all {
				if !valid.MatchString(m.name) || len(m.name) > 64 {
					t.Errorf("malformed metric name %q", m.name)
				}
			}
		}
	}
}

func TestStallTime(t *testing.T) {
	ms := func(v ...int) []time.Duration {
		var out []time.Duration
		for _, x := range v {
			out = append(out, time.Duration(x)*time.Millisecond)
		}
		return out
	}
	for _, tc := range []struct {
		done []time.Duration
		end  time.Duration
		want time.Duration
	}{
		{ms(100, 200, 300), 300 * time.Millisecond, 0},
		{ms(100, 1500, 1600), 1600 * time.Millisecond, 1400 * time.Millisecond},
		{ms(1600, 100), 1600 * time.Millisecond, 1500 * time.Millisecond},
		{nil, 2500 * time.Millisecond, 2500 * time.Millisecond},
		{ms(100), 3100 * time.Millisecond, 3000 * time.Millisecond},
	} {
		if got := stallTime(tc.done, tc.end); got != tc.want {
			t.Errorf("stallTime(%v, %v) = %v; want %v", tc.done, tc.end, got, tc.want)
		}
	}
}

type plainApp struct{}

func (plainApp) Execute(op []byte) ([]byte, func()) { return op, nil }

func TestWrappersKeepCapabilities(t *testing.T) {
	st := &appStats{}
	if _, ok := st.wrap(replication.EchoApp{}).(replication.Snapshotter); !ok {
		t.Error("wrapped snapshotting app lost Snapshotter")
	}
	if _, ok := st.wrap(plainApp{}).(replication.Snapshotter); ok {
		t.Error("wrapped plain app gained Snapshotter")
	}

	sim := newTap(false, 42).fabric()
	defer sim.Close()
	if _, ok := sim.(transport.LossInjector); !ok {
		t.Error("simnet tap does not forward LossInjector")
	}
	if _, ok := sim.(transport.Partitioner); !ok {
		t.Error("simnet tap does not forward Partitioner")
	}
	if s, ok := sim.(transport.Seeded); !ok || s.Seed() != 42 {
		t.Error("simnet tap does not forward the seed")
	}
	udp := newTap(true, 0).fabric()
	defer udp.Close()
	if _, ok := udp.(transport.LossInjector); ok {
		t.Error("udp tap claims LossInjector")
	}
}

func TestLedgerWindows(t *testing.T) {
	snap := func(x, y float64, bucket uint64) ledgerSnap {
		l := ledgerSnap{vals: map[string]float64{"x": x}, hists: map[string]metrics.HistogramSnapshot{}}
		if y > 0 {
			l.vals["y"] = y
		}
		var h metrics.HistogramSnapshot
		h.Buckets[3], h.Count = bucket, bucket
		l.hists["h"] = h
		return l
	}
	// Two windows of one system: the second sees counter y appear.
	lat := snap(10, 0, 4).since(snap(4, 0, 1))
	sat := snap(30, 5, 9).since(snap(20, 0, 4))
	d := lat.plus(sat)
	if d.vals["x"] != 16 || d.vals["y"] != 5 {
		t.Errorf("summed counters x=%v y=%v; want 16 and 5", d.vals["x"], d.vals["y"])
	}
	if h := d.hists["h"]; h.Count != 8 || h.Buckets[3] != 8 {
		t.Errorf("summed histogram count %d bucket %d; want 8 and 8", h.Count, h.Buckets[3])
	}
}
