package bench

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"neobft/internal/chaos"
	"neobft/internal/configsvc"
	"neobft/internal/crypto/auth"
	"neobft/internal/hotstuff"
	"neobft/internal/metrics"
	"neobft/internal/minbft"
	"neobft/internal/neobft"
	"neobft/internal/pbft"
	"neobft/internal/replication"
	"neobft/internal/runtime"
	"neobft/internal/sequencer"
	"neobft/internal/simnet"
	"neobft/internal/store"
	"neobft/internal/tracing"
	"neobft/internal/transport"
	"neobft/internal/transport/udpnet"
	"neobft/internal/unreplicated"
	"neobft/internal/usig"
	"neobft/internal/wire"
	"neobft/internal/zyzzyva"
)

// Protocol names a system under test.
type Protocol string

// The systems of Figs 7–10.
const (
	NeoHM        Protocol = "Neo-HM"
	NeoPK        Protocol = "Neo-PK"
	NeoBN        Protocol = "Neo-BN"
	PBFT         Protocol = "PBFT"
	Zyzzyva      Protocol = "Zyzzyva"
	ZyzzyvaF     Protocol = "Zyzzyva-F"
	HotStuff     Protocol = "HotStuff"
	MinBFT       Protocol = "MinBFT"
	Unreplicated Protocol = "Unreplicated"
)

// AllProtocols lists the systems in the paper's presentation order.
var AllProtocols = []Protocol{Unreplicated, NeoHM, NeoPK, NeoBN, Zyzzyva, ZyzzyvaF, PBFT, HotStuff, MinBFT}

// Invoker is a closed-loop client of any system.
type Invoker interface {
	Invoke(op []byte, deadline time.Duration) ([]byte, error)
}

// Options configures a system under test.
type Options struct {
	Protocol Protocol
	// N is the replica count for 3f+1 protocols (default 4). MinBFT runs
	// 2f+1 replicas for the same f.
	N int
	// AppFactory builds one state machine per replica (default echo).
	AppFactory func(i int) replication.App
	// Net configures the simulated network.
	Net simnet.Options
	// BatchSize for the batching baselines (default 8): the maximum
	// number of requests per batch.
	BatchSize int
	// BatchBytes caps the payload bytes per batch (0 = batch default).
	BatchBytes int
	// BatchLinger bounds how long the oldest queued request may wait
	// before a partial batch is cut anyway (0 = cut whenever polled, the
	// legacy behavior).
	BatchLinger time.Duration
	// BatchAdaptive drives the batch-size target from an EWMA of the
	// leader's queue depth instead of always waiting for BatchSize.
	BatchAdaptive bool
	// ClientWindow is each client's in-flight pipeline window (default 1
	// = closed-loop).
	ClientWindow int
	// CheckpointInterval is the slot interval between checkpoints for
	// every protocol (NeoBFT sync points, PBFT/Zyzzyva/MinBFT stable
	// checkpoints, HotStuff/unreplicated compaction). 0 keeps each
	// protocol's default.
	CheckpointInterval int
	// SignRate for the aom-pk signing-ratio controller (signatures/sec;
	// 0 = sign everything).
	SignRate float64
	// ConfirmFlushEvery batches Neo-BN confirm messages (default 200µs).
	ConfirmFlushEvery time.Duration
	// DropRate injects random drops on sequencer→replica multicast
	// links (Fig 9); applies to NeoBFT systems.
	DropRate float64
	// ClientTimeout is the client retransmission interval (default 1s).
	ClientTimeout time.Duration
	// USIGDelay models the SGX enclave-transition cost per USIG call
	// (MinBFT; default 10µs, the order of an ECALL/OCALL round trip).
	USIGDelay time.Duration
	// VerifyWorkers sets each replica runtime's verification worker
	// count: 0 picks the runtime default, negative runs verification
	// inline on the delivery goroutine.
	VerifyWorkers int
	// Transport selects the fabric the system assembles over: "" or
	// "simnet" for the simulated network (configured by Net), "udp" for
	// real loopback UDP sockets. Ignored when Fabric is set.
	Transport string
	// Fabric, when set, is used directly instead of building one from
	// Transport — e.g. a udpnet.Fabric over a multi-machine address book.
	Fabric transport.Fabric
	// Chaos arms the fault-injection harness: Run executes the schedule
	// during the measured window, wraps every replica's app in a
	// chaos.RecordingApp, and safety-checks the execution histories
	// afterwards (RunResult.Chaos).
	Chaos *chaos.Schedule
	// TraceRate arms cross-node causal tracing: every node gets a
	// tracer, every conn is wrapped to attach/peel trace envelopes, and
	// clients root a sampled trace for roughly this fraction of
	// operations (1 = every op). 0 leaves tracing off entirely — no
	// wrappers are composed and the message path is the untraced one.
	TraceRate float64
	// TraceBuf caps each node tracer's span buffer (0 = tracing default).
	TraceBuf int
	// DataDir arms durable replica state: each replica gets a
	// store.Store under DataDir/replica-<i> journaling executed ops
	// (write-behind) and stable checkpoints (group-commit fsync'd). A
	// killed or crashed replica's warm restart then means "reboot from
	// the data dir": its restore blob is read back from disk rather
	// than from the parent process's memory, and a cold restart wipes
	// the directory first. Empty keeps the legacy in-memory blobs.
	DataDir string
	// FsyncLinger is the store's group-commit linger (see
	// store.Options.FsyncLinger; 0 = store default, <0 = no linger).
	FsyncLinger time.Duration
	// PersistEvery is how often the background persister captures each
	// replica's Persist() blob into its store (default 50ms). Only
	// meaningful with DataDir set.
	PersistEvery time.Duration
}

// System is a running system under test. Its replicas are assembled
// by one loop for every protocol (see protocolSpec); the methods below
// read and drive that one replica slice.
type System struct {
	Name string
	// Net is the fabric the system runs over. Capability interfaces
	// (transport.Partitioner, transport.Seeded, ...) are type-asserted by
	// callers that need simnet-only features.
	Net transport.Fabric
	// Transport names the fabric kind actually built ("simnet", "udp",
	// or "custom" for a caller-supplied fabric).
	Transport string
	Svc       *configsvc.Service
	Switches  []configsvc.SwitchHandle

	// Replicas exposes protocol-specific handles (*neobft.Replica etc.).
	Replicas []interface{}
	// Metrics holds one registry per instrumented node: the replica
	// registries in replica order, followed by sequencer-switch
	// registries for the NeoBFT systems. Run merges them into the
	// system-wide snapshot of RunResult.Metrics.
	Metrics []*metrics.Registry
	// NumReplicas is the replica count actually built (MinBFT runs 2f+1).
	NumReplicas int

	// Chaos is the armed schedule (nil unless Options.Chaos was set) and
	// RecApps the per-replica recording wrappers feeding the checker.
	Chaos   *chaos.Schedule
	RecApps []*chaos.RecordingApp

	// Tracers holds every node tracer created for this system — replicas
	// and sequencer switches at build time, clients as NewClient runs —
	// when Options.TraceRate > 0; empty otherwise. DrainSpans merges
	// their span buffers into the dump cmd/neotrace consumes.
	Tracers []*tracing.Tracer
	traceMu sync.Mutex
	// BatchMax, BatchBytes, BatchLinger, BatchAdaptive and ClientWindow
	// record the batching/pipelining configuration the system was built
	// with; the load generators copy them into RunResult.Config.
	BatchMax      int
	BatchBytes    int
	BatchLinger   time.Duration
	BatchAdaptive bool
	ClientWindow  int

	// Durable records whether the system persists replica state to a
	// data dir, and FsyncLinger the group-commit linger it was built
	// with; the load generators copy both into RunResult.Config so
	// metrics.csv rows distinguish durable from in-memory runs.
	Durable     bool
	FsyncLinger time.Duration

	o    Options
	f    int
	spec protocolSpec
	mem  []transport.NodeID
	// usigs are MinBFT's trusted counters, one per replica. They live
	// outside the replicas because the enclave state survives a crash
	// of the untrusted replica around it.
	usigs []*usig.USIG
	// life serializes lifecycle transitions (Crash, Kill, Restart,
	// Close); mu guards the per-incarnation fields of reps. A transition
	// holds life throughout and mu only while it writes, so it can wait
	// for a persister to exit without blocking readers.
	life sync.Mutex
	mu   sync.Mutex
	reps []*replica

	// clientReg is the registry shared by every client: client tracers
	// (phase_e2e_ns / phase_reply_ns are observed client-side) and the
	// replication-client series (client_retransmits_total, client_inflight).
	// It is appended to Metrics after the replica and switch registries so
	// index-based node→registry mappings stay stable.
	clientReg *metrics.Registry
	// chaosTr records injected faults as always-sampled spans.
	chaosTr *tracing.Tracer
	// spanSink, when set, receives every drained span as Close starts.
	spanSink func([]tracing.Span)
}

// newTracer creates one node tracer when tracing is enabled, recording
// it on the system for DrainSpans. With tracing off it returns nil, and
// every wrap helper below passes the inner value through untouched.
func (sys *System) newTracer(node string, reg *metrics.Registry) *tracing.Tracer {
	if sys.o.TraceRate <= 0 {
		return nil
	}
	tr := tracing.New(tracing.Config{Node: node, Rate: sys.o.TraceRate, BufCap: sys.o.TraceBuf, Metrics: reg})
	sys.traceMu.Lock()
	sys.Tracers = append(sys.Tracers, tr)
	sys.traceMu.Unlock()
	return tr
}

// DrainSpans snapshots every tracer's recorded spans, across all nodes
// and clients — the in-process equivalent of concatenating per-process
// span dumps. Feed the result to tracing.BuildTimelines.
func (sys *System) DrainSpans() []tracing.Span {
	sys.traceMu.Lock()
	trs := append([]*tracing.Tracer(nil), sys.Tracers...)
	sys.traceMu.Unlock()
	var out []tracing.Span
	for _, tr := range trs {
		out = append(out, tr.Drain()...)
	}
	return out
}

// Starter is a pipelined client: Start submits an operation without
// waiting for its result. Every protocol client in this repository
// implements it alongside the closed-loop Invoke.
type Starter interface {
	Start(op []byte, deadline time.Duration) replication.Call
}

// starterInvoker pairs the traced closed-loop view of a client with its
// raw pipelined Start. Trace roots cover Invoke only: pipelined
// operations overlap, so a per-op root span has no single active window
// on the client goroutine.
type starterInvoker struct {
	Invoker
	s Starter
}

func (si starterInvoker) Start(op []byte, deadline time.Duration) replication.Call {
	return si.s.Start(op, deadline)
}

// traceInvoker decorates a protocol client with the trace-root wrapper
// (sampling decision + request span) when tracing is on, preserving the
// client's pipelined Start.
func traceInvoker(in Invoker, tr *tracing.Tracer) Invoker {
	if tr == nil {
		return in
	}
	traced := tracing.WrapInvoker(in, tr)
	if s, ok := in.(Starter); ok {
		return starterInvoker{Invoker: traced, s: s}
	}
	return traced
}

// clientTuning bundles the windowing/backoff/metrics knobs every
// protocol client receives.
func (sys *System) clientTuning() replication.Tuning {
	return replication.Tuning{
		Window:  sys.o.ClientWindow,
		Timeout: sys.o.ClientTimeout,
		Metrics: sys.clientReg,
	}
}

const (
	switchBase = transport.NodeID(20000)
	clientBase = transport.NodeID(10000)

	replicaMaster = "replica-master"
	clientMaster  = "client-master"
)

// protocolSpec is one protocol's entry in the assembly table: only what
// differs between protocols. Everything else (joining the fabric,
// packet counting, trace envelopes, runtimes, authenticators, metrics
// registries, durable stores and the crash/restart lifecycle) is the
// one assembly that Build and the System methods share.
type protocolSpec struct {
	// size is the replica count for the configured n and f.
	size func(n, f int) int
	// setup builds protocol-wide extras before the replicas (nil =
	// none): NeoBFT's sequencer switches and configuration service,
	// MinBFT's USIGs.
	setup func(sys *System)
	// newReplica constructs one incarnation of replica r executing app.
	// Build passes restore = nil; Restart passes the persisted blob.
	newReplica func(sys *System, r *replica, app replication.App, restore []byte) node
	// newClient builds a client over an already joined conn.
	newClient func(sys *System, conn transport.Conn) Invoker
}

// node is one replica incarnation as the shared lifecycle sees it.
type node struct {
	handle interface {
		Persist() []byte
		Close()
	}
	// executed reports ops executed by this incarnation.
	executed func() uint64
	// progress reports log progress for catch-up measurement; where
	// executed resets across incarnations (NeoBFT), progress resumes
	// from the restored checkpoint instead.
	progress func() uint64
}

func allReplicas(n, _ int) int { return n }

var neoSpec = protocolSpec{
	size:  allReplicas,
	setup: setupNeo,
	newReplica: func(sys *System, r *replica, app replication.App, restore []byte) node {
		nr := neobft.New(neobft.Config{
			Self: r.i, N: sys.NumReplicas, F: sys.f,
			Members:           sys.mem,
			Group:             1,
			Conn:              r.rconn,
			Auth:              r.auth,
			ClientAuth:        r.cside,
			App:               app,
			Variant:           neoVariant(sys.o.Protocol),
			Byzantine:         sys.o.Protocol == NeoBN,
			SyncInterval:      sys.o.CheckpointInterval,
			ConfirmFlushEvery: sys.o.ConfirmFlushEvery,
			ConfirmBatch:      16,
			Svc:               sys.Svc,
			Runtime:           r.rt,
			Metrics:           r.reg,
			Restore:           restore,
		})
		// The op counter resets on restart; the speculative-execution
		// slot is restored from the checkpoint.
		return node{nr, nr.Committed, nr.Executed}
	},
	newClient: func(sys *System, conn transport.Conn) Invoker {
		cl, err := neobft.NewClient(neobft.ClientOptions{
			Conn:     conn,
			Master:   []byte(clientMaster),
			N:        sys.NumReplicas,
			F:        sys.f,
			Replicas: sys.mem,
			Group:    1,
			Svc:      sys.Svc,
			Tune:     sys.clientTuning(),
		})
		if err != nil {
			panic(err)
		}
		return cl
	},
}

var zyzzyvaSpec = protocolSpec{
	size: allReplicas,
	newReplica: func(sys *System, r *replica, app replication.App, restore []byte) node {
		zr := zyzzyva.New(zyzzyva.Config{
			Self: r.i, N: sys.NumReplicas, F: sys.f,
			Members:            sys.mem,
			Conn:               r.rconn,
			Auth:               r.auth,
			ClientAuth:         r.cside,
			App:                app,
			BatchSize:          sys.o.BatchSize,
			BatchBytes:         sys.o.BatchBytes,
			BatchLinger:        sys.o.BatchLinger,
			BatchAdaptive:      sys.o.BatchAdaptive,
			CheckpointInterval: sys.o.CheckpointInterval,
			Silent:             sys.o.Protocol == ZyzzyvaF && r.i == sys.NumReplicas-1,
			Runtime:            r.rt,
			Metrics:            r.reg,
			Restore:            restore,
		})
		return node{zr, zr.Executed, zr.Executed}
	},
	newClient: func(sys *System, conn transport.Conn) Invoker {
		// On a shared single core the 4th speculative response can lag;
		// a larger speculative timeout keeps fault-free Zyzzyva on its
		// fast path while still penalizing Zyzzyva-F heavily per
		// operation.
		const specTimeout = 20 * time.Millisecond
		return zyzzyva.NewClient(conn, []byte(clientMaster), sys.NumReplicas, sys.f, sys.mem, specTimeout, sys.clientTuning())
	},
}

// protocols is the assembly table Build and FleetSize read.
var protocols = map[Protocol]protocolSpec{
	NeoHM:    neoSpec,
	NeoPK:    neoSpec,
	NeoBN:    neoSpec,
	Zyzzyva:  zyzzyvaSpec,
	ZyzzyvaF: zyzzyvaSpec,
	PBFT: {
		size: allReplicas,
		newReplica: func(sys *System, r *replica, app replication.App, restore []byte) node {
			pr := pbft.New(pbft.Config{
				Self: r.i, N: sys.NumReplicas, F: sys.f,
				Members:            sys.mem,
				Conn:               r.rconn,
				Auth:               r.auth,
				ClientAuth:         r.cside,
				App:                app,
				BatchSize:          sys.o.BatchSize,
				BatchBytes:         sys.o.BatchBytes,
				BatchLinger:        sys.o.BatchLinger,
				BatchAdaptive:      sys.o.BatchAdaptive,
				CheckpointInterval: sys.o.CheckpointInterval,
				Runtime:            r.rt,
				Metrics:            r.reg,
				Restore:            restore,
			})
			return node{pr, pr.Executed, pr.Executed}
		},
		newClient: func(sys *System, conn transport.Conn) Invoker {
			return pbft.NewClient(conn, []byte(clientMaster), sys.NumReplicas, sys.f, sys.mem, sys.clientTuning())
		},
	},
	HotStuff: {
		size: allReplicas,
		newReplica: func(sys *System, r *replica, app replication.App, restore []byte) node {
			hr := hotstuff.New(hotstuff.Config{
				Self: r.i, N: sys.NumReplicas, F: sys.f,
				Members:            sys.mem,
				Conn:               r.rconn,
				Auth:               r.auth,
				ClientAuth:         r.cside,
				App:                app,
				BatchSize:          sys.o.BatchSize,
				BatchBytes:         sys.o.BatchBytes,
				BatchLinger:        sys.o.BatchLinger,
				BatchAdaptive:      sys.o.BatchAdaptive,
				CheckpointInterval: sys.o.CheckpointInterval,
				Runtime:            r.rt,
				Metrics:            r.reg,
				Restore:            restore,
			})
			return node{hr, hr.Executed, hr.Executed}
		},
		newClient: func(sys *System, conn transport.Conn) Invoker {
			return hotstuff.NewClient(conn, []byte(clientMaster), sys.NumReplicas, sys.f, sys.mem, sys.clientTuning())
		},
	},
	MinBFT: {
		// Trusted components reduce the replication factor.
		size: func(_, f int) int { return 2*f + 1 },
		setup: func(sys *System) {
			for i := 0; i < sys.NumReplicas; i++ {
				sys.usigs = append(sys.usigs, usig.New(uint32(i), []byte("sgx-master")).WithEnclaveDelay(sys.o.USIGDelay))
			}
		},
		newReplica: func(sys *System, r *replica, app replication.App, restore []byte) node {
			mr := minbft.New(minbft.Config{
				Self: r.i, N: sys.NumReplicas, F: sys.f,
				Members:            sys.mem,
				Conn:               r.rconn,
				Auth:               r.auth,
				ClientAuth:         r.cside,
				App:                app,
				USIG:               sys.usigs[r.i],
				BatchSize:          sys.o.BatchSize,
				BatchBytes:         sys.o.BatchBytes,
				BatchLinger:        sys.o.BatchLinger,
				BatchAdaptive:      sys.o.BatchAdaptive,
				CheckpointInterval: sys.o.CheckpointInterval,
				Runtime:            r.rt,
				Metrics:            r.reg,
				Restore:            restore,
			})
			return node{mr, mr.Executed, mr.Executed}
		},
		newClient: func(sys *System, conn transport.Conn) Invoker {
			return minbft.NewClient(conn, []byte(clientMaster), sys.NumReplicas, sys.f, sys.mem, sys.clientTuning())
		},
	},
	Unreplicated: {
		size: func(int, int) int { return 1 },
		newReplica: func(sys *System, r *replica, app replication.App, restore []byte) node {
			s := unreplicated.New(unreplicated.Config{
				Conn: r.rconn, App: app, ClientAuth: r.cside, Runtime: r.rt,
				CheckpointInterval: sys.o.CheckpointInterval,
				Metrics:            r.reg,
				Restore:            restore,
			})
			return node{s, s.Ops, s.Ops}
		},
		newClient: func(sys *System, conn transport.Conn) Invoker {
			return unreplicated.NewClient(conn, sys.mem[0], []byte(clientMaster), sys.clientTuning())
		},
	},
}

func neoVariant(p Protocol) wire.AuthKind {
	if p == NeoPK {
		return wire.AuthPK
	}
	return wire.AuthHMAC
}

// setupNeo builds the configuration service and the two sequencer
// switches (active and standby) the NeoBFT replicas order through.
func setupNeo(sys *System) {
	variant := neoVariant(sys.o.Protocol)
	sys.Svc = configsvc.New(variant, []byte("aom-master"))
	for i := 0; i < 2; i++ {
		id := switchBase + transport.NodeID(i)
		reg := metrics.NewRegistry()
		tr := sys.newTracer(fmt.Sprintf("sequencer-%d", i), reg)
		sw := sequencer.New(tracing.WrapConn(join(sys.Net, id), tr), sequencer.Options{
			Variant:  variant,
			PKSeed:   []byte{byte(i + 1)},
			SignRate: sys.o.SignRate,
			Metrics:  reg,
			Tracer:   tr,
		})
		sys.Metrics = append(sys.Metrics, reg)
		h := configsvc.SwitchHandle{ID: id, SW: sw}
		sys.Switches = append(sys.Switches, h)
		sys.Svc.RegisterSwitch(h)
	}
	if _, err := sys.Svc.CreateGroup(1, sys.mem); err != nil {
		panic(err)
	}
}

func specFor(p Protocol) protocolSpec {
	spec, ok := protocols[p]
	if !ok {
		panic(fmt.Sprintf("bench: unknown protocol %q", p))
	}
	return spec
}

// faults is the f a fleet of n replicas tolerates; every replicated
// protocol tolerates at least one fault.
func faults(p Protocol, n int) int {
	f := (n - 1) / 3
	if f < 1 && p != Unreplicated {
		f = 1
	}
	return f
}

// FleetSize reports how many replicas Build will create for the given
// protocol and configured N (0 = default). Chaos schedules are generated
// against this count so fault targets stay in range.
func FleetSize(p Protocol, n int) int {
	if n == 0 {
		n = 4
	}
	return specFor(p).size(n, faults(p, n))
}

// Build constructs and starts a system under test.
func Build(o Options) *System {
	if o.N == 0 {
		o.N = 4
	}
	if o.BatchSize == 0 {
		o.BatchSize = 8
	}
	if o.ConfirmFlushEvery == 0 {
		o.ConfirmFlushEvery = 200 * time.Microsecond
	}
	if o.ClientTimeout == 0 {
		o.ClientTimeout = time.Second
	}
	if o.ClientWindow == 0 {
		o.ClientWindow = 1
	}
	if o.AppFactory == nil {
		o.AppFactory = func(int) replication.App { return replication.EchoApp{} }
	}
	if o.USIGDelay == 0 {
		o.USIGDelay = 10 * time.Microsecond
	}
	if o.PersistEvery <= 0 {
		o.PersistEvery = 50 * time.Millisecond
	}
	spec := specFor(o.Protocol)
	f := faults(o.Protocol, o.N)
	n := spec.size(o.N, f)
	sys := &System{
		Name:          string(o.Protocol),
		NumReplicas:   n,
		Chaos:         o.Chaos,
		Durable:       o.DataDir != "",
		BatchMax:      o.BatchSize,
		BatchBytes:    o.BatchBytes,
		BatchLinger:   o.BatchLinger,
		BatchAdaptive: o.BatchAdaptive,
		ClientWindow:  o.ClientWindow,
		o:             o,
		f:             f,
		spec:          spec,
		mem:           members(n),
		Replicas:      make([]interface{}, n),
		clientReg:     metrics.NewRegistry(),
	}
	if sys.Durable {
		sys.FsyncLinger = o.FsyncLinger
	}
	if sys.Chaos != nil {
		sys.RecApps = make([]*chaos.RecordingApp, n)
	}
	sys.Net, sys.Transport = sys.newFabric()
	// Replica registries come first in Metrics: the udp fabric maps node
	// ID i+1 to Metrics[i]. The process-wide Go heap gauges live on the
	// first registry only: Merge sums Func samples, so registering them
	// per replica would multiply the (shared) heap by n.
	for i := 0; i < n; i++ {
		r := &replica{i: i, reg: metrics.NewRegistry()}
		sys.reps = append(sys.reps, r)
		sys.Metrics = append(sys.Metrics, r.reg)
	}
	metrics.RegisterHeapGauges(sys.reps[0].reg)
	if spec.setup != nil {
		spec.setup(sys)
	}
	for _, r := range sys.reps {
		r.conn = &countingConn{conn: join(sys.Net, sys.mem[r.i])}
		r.tr = sys.newTracer(fmt.Sprintf("replica-%d", r.i), r.reg)
		r.rconn = tracing.WrapConn(r.conn, r.tr)
		r.auth = auth.NewHMACAuth([]byte(replicaMaster), r.i, n)
		r.cside = auth.NewReplicaSide([]byte(clientMaster), r.i)
		if sys.Durable {
			if err := sys.openStore(r); err != nil {
				panic(fmt.Sprintf("bench: %v", err))
			}
		}
		sys.boot(r, nil)
	}
	sys.Metrics = append(sys.Metrics, sys.clientReg)
	if o.TraceRate > 0 {
		sys.chaosTr = sys.newTracer("chaos", nil)
	}
	return sys
}

// newFabric builds the fabric Options select and names its kind.
func (sys *System) newFabric() (transport.Fabric, string) {
	o := sys.o
	switch {
	case o.Fabric != nil:
		if o.Transport == "" {
			return o.Fabric, "custom"
		}
		return o.Fabric, o.Transport
	case o.Transport == "udp":
		// Real loopback UDP sockets, bound on demand. Per-node conn
		// counters land in the node's shared metrics registry (replica i
		// has node ID i+1; switches and clients get private registries).
		return udpnet.NewLoopback(udpnet.FabricConfig{
			Config: udpnet.Config{RcvBuf: 1 << 20, SndBuf: 1 << 20},
			MetricsFor: func(id transport.NodeID) *metrics.Registry {
				if i := int(id) - 1; i >= 0 && i < len(sys.Metrics) {
					return sys.Metrics[i]
				}
				return nil
			},
		}), "udp"
	case o.Transport == "" || o.Transport == "simnet":
		netOpts := o.Net
		if netOpts.Latency > 0 && netOpts.LatencyOverride == nil {
			// The sequencer switch sits on the client→replica path: traffic
			// through it pays half the host-to-host latency on each leg plus
			// the authentication-pipeline latency on the stamped leg
			// (Figs 4-5: ~9µs for aom-hm, ~3µs for aom-pk).
			half := netOpts.Latency / 2
			pipeline := 9 * time.Microsecond
			if o.Protocol == NeoPK {
				pipeline = 3 * time.Microsecond
			}
			netOpts.LatencyOverride = func(from, to transport.NodeID) (time.Duration, bool) {
				if to >= switchBase {
					return half, true
				}
				if from >= switchBase {
					return half + pipeline, true
				}
				return 0, false
			}
		}
		if o.DropRate > 0 {
			netOpts.DropRate = o.DropRate
			netOpts.DropFilter = func(from, to transport.NodeID) bool {
				return from >= switchBase // only aom multicast drops
			}
		}
		return simnet.Fabric{Network: simnet.New(netOpts)}, "simnet"
	default:
		panic(fmt.Sprintf("bench: unknown transport %q", o.Transport))
	}
}

// replica is one member of the fleet: the wiring that spans restarts
// (counted conn, tracer, registry, authenticators) and its current
// incarnation.
type replica struct {
	i     int
	conn  *countingConn
	rconn transport.Conn // conn as the runtime sees it: trace-wrapped when tracing
	tr    *tracing.Tracer
	reg   *metrics.Registry
	auth  *auth.HMACAuth
	cside *auth.ReplicaSide

	// The incarnation: guarded by System.mu, written only under
	// System.life (or during Build).
	alive     bool
	rt        *runtime.Runtime
	node      node
	busyBase  time.Duration    // runtime busy time of earlier incarnations
	blob      []byte           // in-memory restart blob (no DataDir)
	store     *store.Store     // durable state (DataDir), reopened per incarnation
	persister *store.Persister // nil without DataDir
}

// boot starts a new incarnation of replica r over its conn: a fresh
// runtime (same registry and tracer, so counters keep accumulating) and
// protocol replica, restored from blob (nil = cold), plus its persister
// in durable mode.
func (sys *System) boot(r *replica, restore []byte) {
	r.rt = runtime.New(runtime.Config{Conn: r.rconn, Workers: sys.o.VerifyWorkers, Metrics: r.reg, Tracer: r.tr})
	r.node = sys.spec.newReplica(sys, r, sys.newApp(r), restore)
	sys.Replicas[r.i] = r.node.handle
	r.alive = true
	if r.store != nil {
		nd := r.node
		r.persister = store.StartPersister(r.store, sys.o.PersistEvery, func() (uint64, []byte) {
			blob := nd.handle.Persist()
			return nd.progress(), blob
		})
	}
}

// newApp builds replica r's state machine: journaled to its store in
// durable mode, and wrapped so execution histories are recorded for the
// post-run safety check when chaos is armed. The recording wrapper
// snapshots and restores the history alongside the inner app, so state
// transfer carries it to recovering replicas.
func (sys *System) newApp(r *replica) replication.App {
	app := sys.o.AppFactory(r.i)
	if r.store != nil {
		app = store.Durable(app, r.store)
	}
	if sys.Chaos != nil {
		sys.RecApps[r.i] = chaos.NewRecordingApp(app)
		app = sys.RecApps[r.i]
	}
	return app
}

// openStore opens replica r's durable store under the data dir,
// recovering whatever an earlier incarnation made durable there.
func (sys *System) openStore(r *replica) error {
	st, err := store.Open(replicaDir(sys.o.DataDir, r.i), store.Options{
		FsyncLinger: sys.o.FsyncLinger,
		Metrics:     r.reg,
		Tracer:      r.tr,
	})
	if err != nil {
		return fmt.Errorf("open store for replica %d: %w", r.i, err)
	}
	r.store = st
	return nil
}

// NewClient builds a closed-loop client with a unique identity.
func (sys *System) NewClient(id int) Invoker {
	tr := sys.newTracer(fmt.Sprintf("client-%d", id), sys.clientReg)
	conn := tracing.WrapConn(join(sys.Net, clientBase+transport.NodeID(id)), tr)
	return traceInvoker(sys.spec.newClient(sys, conn), tr)
}

// replicaDir is replica i's store directory under a system data dir.
func replicaDir(dataDir string, i int) string {
	return filepath.Join(dataDir, fmt.Sprintf("replica-%d", i))
}

// join attaches a node to the fabric, panicking on failure — system
// assembly joins statically chosen IDs, for which failure is a
// programming error (duplicate ID) or an unusable environment.
func join(fab transport.Fabric, id transport.NodeID) transport.Conn {
	c, err := fab.Join(id)
	if err != nil {
		panic(fmt.Sprintf("bench: join node %d: %v", id, err))
	}
	return c
}

// countingConn wraps a transport.Conn, counting inbound and outbound
// packets. Handler busy time is measured by the replica runtimes, which
// time verification and apply work directly.
//
// The inner conn is swappable: a crash–restart cycle closes the old
// simnet node and joins a fresh one, but keeps the countingConn (and its
// counters) so per-replica packet accounting spans restarts.
type countingConn struct {
	mu    sync.RWMutex
	conn  transport.Conn
	count atomic.Uint64
	sent  atomic.Uint64
}

func (c *countingConn) inner() transport.Conn {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.conn
}

// swap replaces the inner conn (the handler is re-installed by the new
// replica's runtime right after).
func (c *countingConn) swap(conn transport.Conn) {
	c.mu.Lock()
	c.conn = conn
	c.mu.Unlock()
}

func (c *countingConn) ID() transport.NodeID { return c.inner().ID() }

func (c *countingConn) Close() error { return c.inner().Close() }

func (c *countingConn) SetHandler(h transport.Handler) {
	c.inner().SetHandler(func(from transport.NodeID, pkt []byte) {
		c.count.Add(1)
		h(from, pkt)
	})
}

func (c *countingConn) Send(to transport.NodeID, pkt []byte) {
	c.sent.Add(1)
	c.inner().Send(to, pkt)
}

func members(n int) []transport.NodeID {
	out := make([]transport.NodeID, n)
	for i := range out {
		out[i] = transport.NodeID(i + 1)
	}
	return out
}
