package main

import (
	"sort"

	"neobft/internal/bench"
	"neobft/internal/metrics"
	"neobft/internal/tracing"
)

// perLayer derives the per-layer ledger of a traced outcome. d holds the
// counter changes over the two phases' measured windows and sat those
// over the sat window alone. Counts are divided by the operations
// completed in the measured windows; runtime utilisation and window-full
// time are sat-window figures; the tracing phases come from the lat
// phase, whose Invoke calls are the ones the client samples.
// tracing.overhead_frac needs the untraced run and is added by
// runWorkload.
func perLayer(w workload, sys *bench.System, d, sat ledgerSnap, o *outcome, timelines []tracing.Timeline) []metric {
	ops := o.lat.inWindow() + o.sat.inWindow()
	v := func(name string) float64 { return d.vals[name] }
	perKop := func(name string, total float64) metric {
		return perOp(name, "1/kop", total*1e3, ops)
	}
	replicas := float64(sys.NumReplicas)
	satWindow := o.sat.window()
	busyAll := d.sum("replica_busy_ns.", "")

	proto := func(prefix string, on bool) []metric {
		if !on {
			return []metric{
				{name: prefix + ".msgs_per_op", unit: "count"},
				{name: prefix + ".auth_per_op", unit: "count"},
				{name: prefix + ".checkpoints_per_kop", unit: "1/kop"},
			}
		}
		return []metric{
			perOp(prefix+".msgs_per_op", "count", d.replicaMax("msgs", sys.NumReplicas), ops),
			perOp(prefix+".auth_per_op", "count", v("auth_ops"), ops),
			perKop(prefix+".checkpoints_per_kop", v("proto_checkpoints_total")/replicas),
		}
	}
	neo := w.protocol == bench.NeoHM
	viewChanges := metric{name: "neobft.view_changes", unit: "count"}
	gapAgreements := metric{name: "neobft.gap_agreements", unit: "count"}
	if neo {
		viewChanges.value, viewChanges.n = v("proto_view_changes_total")/replicas, sys.NumReplicas
		gapAgreements.value, gapAgreements.n = v("proto_gap_agreements_total")/replicas, sys.NumReplicas
	}

	cuts := d.sum("proto_batch_cut_", "_total")
	batchSize := metric{name: "batch.size_mean", unit: "count", n: int(cuts)}
	lingerFrac := metric{name: "batch.linger_cut_frac", unit: "frac", n: int(cuts)}
	if cuts > 0 {
		batchSize.value = float64(ops) / cuts
		lingerFrac.value = v("proto_batch_cut_linger_total") / cuts
	}

	snaps := v("app_snaps")
	snapMs := metric{name: "kvstore.snapshot_ms", unit: "ms", n: int(snaps)}
	snapMB := metric{name: "kvstore.snapshot_mb", unit: "MB", n: int(snaps)}
	snapFrac := metric{name: "kvstore.snapshot_busy_frac", unit: "frac", n: int(snaps)}
	if snaps > 0 {
		snapMs.value = v("app_snap_ns") / snaps / 1e6
		snapMB.value = v("app_snap_bytes") / snaps / 1e6
	}
	if busyAll > 0 {
		snapFrac.value = v("app_snap_ns") / busyAll
	}

	deliver := metric{name: "transport.deliver_ns_per_pkt", unit: "ns", n: int(v("fabric_handled"))}
	if v("fabric_handled") > 0 {
		deliver.value = v("fabric_handle_ns") / v("fabric_handled")
	}

	ms := []metric{
		perKop("replication.retransmits_per_kop", v("client_retransmits_total")),
		{name: "replication.window_full_frac", unit: "frac", value: float64(o.sat.blocked) / (float64(satWindow) * float64(o.sat.spec.clients)), n: o.sat.attempted},

		perOp("sequencer.busy_ns_per_op", "ns", v("switch_handle_ns"), ops),
		perOp("sequencer.stamped_per_op", "count", v("seq_stamped_total"), ops),

		perKop("aom.gaps_per_kop", v("aom_gap_total")),
		perOp("aom.delivered_per_op", "count", v("aom_delivered_total"), ops),

		perOp("runtime.busy_us_per_op", "us", busyAll/1e3, ops),
		{name: "runtime.busiest_util", unit: "frac", value: sat.replicaMax("busy_ns", sys.NumReplicas) / float64(satWindow), n: o.sat.inWindow()},
		histMetric("runtime.verify_ns_p50", d.hists["runtime_verify_ns"], 0.5),
		histMetric("runtime.apply_ns_p50", d.hists["runtime_apply_ns"], 0.5),
		histMetric("runtime.retire_lag_ns_p99", d.hists["runtime_retire_lag_ns"], 0.99),
	}
	ms = append(ms, proto("neobft", neo)...)
	ms = append(ms, viewChanges, gapAgreements)
	ms = append(ms, proto("pbft", w.protocol == bench.PBFT)...)
	ms = append(ms,
		batchSize, lingerFrac,
		perOp("kvstore.exec_ns_per_op", "ns", v("app_exec_ns"), ops),
		snapMs, snapMB, snapFrac,
		perOp("transport.pkts_per_op", "count", v("fabric_pkts"), ops),
		perOp("transport.kb_per_op", "KB", v("fabric_bytes")/1024, ops),
		deliver,
		metric{name: "transport.drops", unit: "count", value: v("fabric_drops"), n: int(v("fabric_pkts"))},
	)
	ms = append(ms, tracePhases(timelines)...)
	ms = append(ms,
		perKop("go.gc_per_kop", v("go_gc")),
		perOp("go.gc_pause_us_per_op", "us", v("go_pause_ns")/1e3, ops),
	)
	return ms
}

// tracePhases are the medians of the timelines' five commit-path phases.
func tracePhases(timelines []tracing.Timeline) []metric {
	var ms []metric
	for k := 0; k < tracing.NumAttr; k++ {
		m := metric{name: "tracing." + tracing.AttrNames[k] + "_us", unit: "us", n: len(timelines)}
		if len(timelines) == 0 {
			m.missing = true
			ms = append(ms, m)
			continue
		}
		vs := make([]int64, len(timelines))
		for i, tl := range timelines {
			vs[i] = tl.Phases[k]
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		m.value = float64(vs[(len(vs)-1)/2]) / 1e3
		ms = append(ms, m)
	}
	return ms
}

func histMetric(name string, h metrics.HistogramSnapshot, q float64) metric {
	return metric{name: name, unit: "ns", value: h.Quantile(q), n: int(h.Count)}
}
