package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neobft/internal/bench"
	"neobft/internal/metrics"
	"neobft/internal/replication"
	"neobft/internal/simnet"
	"neobft/internal/transport"
	"neobft/internal/transport/udpnet"
)

// The traced run wraps two public seams of the system, the fabric and
// the app, and reads the rest (metric registries, runtime busy time,
// message and authenticator counters, spans) through the System. None
// of this is composed in the runs that produce end-to-end metrics.

// nodeStats counts one node's traffic at the fabric boundary.
type nodeStats struct {
	sentPkts  atomic.Uint64
	sentBytes atomic.Uint64
	handled   atomic.Uint64
	handleNs  atomic.Int64
}

type nodeTotals struct {
	sentPkts, sentBytes, handled uint64
	handleNs                     int64
}

// fabricTap wraps a transport.Fabric, counting packets and bytes sent
// and timing every handler invocation per node.
type fabricTap struct {
	inner transport.Fabric
	kind  string // "simnet" or "udp"

	mu    sync.Mutex
	nodes map[transport.NodeID]*nodeStats
	conns []transport.Conn // inner conns, for their drop counters
}

// simCaps are the simnet capabilities the tap forwards so fault
// injection (DropRate) and the seed keep working through it.
type simCaps interface {
	transport.Partitioner
	transport.LossInjector
	transport.Seeded
}

// simFabricTap is a fabricTap over a fabric with simCaps.
type simFabricTap struct {
	*fabricTap
	simCaps
}

// newTap wraps a fabric like the one bench.Build would assemble: loopback
// UDP with Build's buffer sizes, or a simulated network with the seed.
func newTap(udp bool, seed int64) *fabricTap {
	f := &fabricTap{kind: "simnet", nodes: map[transport.NodeID]*nodeStats{}}
	if udp {
		f.kind = "udp"
		f.inner = udpnet.NewLoopback(udpnet.FabricConfig{Config: udpnet.Config{RcvBuf: 1 << 20, SndBuf: 1 << 20}})
	} else {
		f.inner = simnet.Fabric{Network: simnet.New(simnet.Options{Seed: seed})}
	}
	return f
}

// fabric returns the tap as a transport.Fabric that implements exactly
// the capability interfaces of the fabric it wraps.
func (f *fabricTap) fabric() transport.Fabric {
	if caps, ok := f.inner.(simCaps); ok {
		return simFabricTap{fabricTap: f, simCaps: caps}
	}
	return f
}

func (f *fabricTap) Join(id transport.NodeID) (transport.Conn, error) {
	c, err := f.inner.Join(id)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.nodes[id]
	if st == nil {
		st = &nodeStats{}
		f.nodes[id] = st
	}
	f.conns = append(f.conns, c)
	return &tapConn{Conn: c, st: st}, nil
}

func (f *fabricTap) Close() error { return f.inner.Close() }

// totals sums node counters; class selects which nodes count.
func (f *fabricTap) totals(class func(transport.NodeID) bool) nodeTotals {
	f.mu.Lock()
	defer f.mu.Unlock()
	var t nodeTotals
	for id, st := range f.nodes {
		if class != nil && !class(id) {
			continue
		}
		t.sentPkts += st.sentPkts.Load()
		t.sentBytes += st.sentBytes.Load()
		t.handled += st.handled.Load()
		t.handleNs += st.handleNs.Load()
	}
	return t
}

// drops reads the fabric's own drop counters: simnet's network-wide
// count, or the sum of every UDP conn's drop kinds.
func (f *fabricTap) drops() uint64 {
	if sf, ok := f.inner.(simnet.Fabric); ok {
		return sf.Stats().Dropped
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var n uint64
	for _, c := range f.conns {
		if uc, ok := c.(*udpnet.Conn); ok {
			s := uc.Stats()
			n += s.TxDropUnknown + s.TxDropOversize + s.TxDropOverflow + s.TxDropSockErr + s.RxDropOverflow + s.RxDropShort
		}
	}
	return n
}

type tapConn struct {
	transport.Conn
	st *nodeStats
}

func (c *tapConn) Send(to transport.NodeID, pkt []byte) {
	c.st.sentPkts.Add(1)
	c.st.sentBytes.Add(uint64(len(pkt)))
	c.Conn.Send(to, pkt)
}

func (c *tapConn) SetHandler(h transport.Handler) {
	st := c.st
	c.Conn.SetHandler(func(from transport.NodeID, pkt []byte) {
		t0 := time.Now()
		h(from, pkt)
		st.handleNs.Add(int64(time.Since(t0)))
		st.handled.Add(1)
	})
}

// appStats times the replicated app across all replicas.
type appStats struct {
	execNs, execs            atomic.Int64
	snapNs, snaps, snapBytes atomic.Int64
}

type appTotals struct {
	execNs, execs, snapNs, snaps, snapBytes int64
}

func (s *appStats) totals() appTotals {
	return appTotals{s.execNs.Load(), s.execs.Load(), s.snapNs.Load(), s.snaps.Load(), s.snapBytes.Load()}
}

// wrap returns app timed by s, implementing replication.Snapshotter
// exactly when app does.
func (s *appStats) wrap(app replication.App) replication.App {
	t := tapApp{inner: app, st: s}
	if snap, ok := app.(replication.Snapshotter); ok {
		return tapSnapApp{tapApp: t, snap: snap}
	}
	return t
}

type tapApp struct {
	inner replication.App
	st    *appStats
}

func (a tapApp) Execute(op []byte) ([]byte, func()) {
	t0 := time.Now()
	res, undo := a.inner.Execute(op)
	a.st.execNs.Add(int64(time.Since(t0)))
	a.st.execs.Add(1)
	return res, undo
}

type tapSnapApp struct {
	tapApp
	snap replication.Snapshotter
}

func (a tapSnapApp) Snapshot() []byte {
	t0 := time.Now()
	b := a.snap.Snapshot()
	a.st.snapNs.Add(int64(time.Since(t0)))
	a.st.snaps.Add(1)
	a.st.snapBytes.Add(int64(len(b)))
	return b
}

func (a tapSnapApp) Restore(data []byte) error { return a.snap.Restore(data) }

// ledgerSnap is one reading of every counter the per-layer metrics are
// computed from, or the difference or sum of such readings: counters by
// name in vals (registry counters under their own names, the rest under
// the names readLedger gives them) and registry histograms in hists.
type ledgerSnap struct {
	vals  map[string]float64
	hists map[string]metrics.HistogramSnapshot
}

func readLedger(sys *bench.System, fab *fabricTap, app *appStats) ledgerSnap {
	l := ledgerSnap{vals: map[string]float64{}, hists: map[string]metrics.HistogramSnapshot{}}
	snaps := make([][]metrics.Sample, len(sys.Metrics))
	for i, reg := range sys.Metrics {
		snaps[i] = reg.Snapshot()
	}
	for _, s := range metrics.Merge(snaps...) {
		switch s.Kind {
		case metrics.KindCounter:
			l.vals[s.Name] = s.Value
		case metrics.KindHistogram:
			l.hists[s.Name] = *s.Hist
		}
	}
	for i, b := range sys.PerReplicaBusy() {
		l.vals[replicaKey("busy_ns", i)] = float64(b)
	}
	for i, m := range sys.PerReplicaMsgs() {
		l.vals[replicaKey("msgs", i)] = float64(m)
	}
	isSwitch := func(id transport.NodeID) bool {
		for _, h := range sys.Switches {
			if h.ID == id {
				return true
			}
		}
		return false
	}
	all, sw, at := fab.totals(nil), fab.totals(isSwitch), app.totals()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for k, v := range map[string]float64{
		"auth_ops":         float64(sys.AuthOps()),
		"fabric_pkts":      float64(all.sentPkts),
		"fabric_bytes":     float64(all.sentBytes),
		"fabric_handled":   float64(all.handled),
		"fabric_handle_ns": float64(all.handleNs),
		"fabric_drops":     float64(fab.drops()),
		"switch_handle_ns": float64(sw.handleNs),
		"app_exec_ns":      float64(at.execNs),
		"app_snap_ns":      float64(at.snapNs),
		"app_snaps":        float64(at.snaps),
		"app_snap_bytes":   float64(at.snapBytes),
		"go_gc":            float64(ms.NumGC),
		"go_pause_ns":      float64(ms.PauseTotalNs),
	} {
		l.vals[k] = v
	}
	return l
}

func replicaKey(name string, i int) string { return fmt.Sprintf("replica_%s.%d", name, i) }

// since returns the change from a to l.
func (l ledgerSnap) since(a ledgerSnap) ledgerSnap { return l.combine(a, -1) }

// plus returns the sum of two changes.
func (l ledgerSnap) plus(b ledgerSnap) ledgerSnap { return l.combine(b, 1) }

func (l ledgerSnap) combine(o ledgerSnap, sign float64) ledgerSnap {
	out := ledgerSnap{vals: map[string]float64{}, hists: map[string]metrics.HistogramSnapshot{}}
	for _, src := range []ledgerSnap{l, o} {
		for k := range src.vals {
			out.vals[k] = l.vals[k] + sign*o.vals[k]
		}
		for k := range src.hists {
			h, oh := l.hists[k], o.hists[k]
			var d metrics.HistogramSnapshot
			for b := range h.Buckets {
				if sign < 0 {
					d.Buckets[b] = h.Buckets[b] - oh.Buckets[b]
				} else {
					d.Buckets[b] = h.Buckets[b] + oh.Buckets[b]
				}
				d.Count += d.Buckets[b]
			}
			out.hists[k] = d
		}
	}
	return out
}

// sum adds the counters whose names start with prefix and end with
// suffix.
func (l ledgerSnap) sum(prefix, suffix string) float64 {
	var total float64
	for name, v := range l.vals {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			total += v
		}
	}
	return total
}

// replicaMax is the largest per-replica value of a replicaKey counter.
func (l ledgerSnap) replicaMax(name string, n int) float64 {
	var m float64
	for i := 0; i < n; i++ {
		m = math.Max(m, l.vals[replicaKey(name, i)])
	}
	return m
}
