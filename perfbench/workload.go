package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"neobft/internal/bench"
	"neobft/internal/kvstore"
	"neobft/internal/replication"
	"neobft/internal/simnet"
	"neobft/internal/ycsb"
)

// workload is one system configuration plus the operation mix driven
// against it. Everything not named here keeps the repository default.
type workload struct {
	name     string
	protocol bench.Protocol
	udp      bool
	// dropRate is the sequencer→replica loss rate (Neo only).
	dropRate float64
	// kv selects YCSB-A on the B-Tree store instead of 64-byte echo.
	kv bool
	// gated workloads are the ones BENCHMARK.json lists and --workload
	// all runs; on them no operation may fail.
	gated bool
}

// workloads are the systems the benchmark knows. hm-echo and hm-ycsb
// differ only in the app, so an app-side change shows on one and not the
// other; pbft-echo is the paper's PBFT baseline on the same simulated
// network as hm-echo, so it bypasses the sequencer and aom but pays for
// batching and all-to-all messages; pbft-udp is pbft-echo over real
// loopback sockets; hm-loss adds the one fault the paper sweeps (Fig 9).
//
// pbft-udp is not gated: its figures are dominated by socket syscalls and
// thread wake-ups, which on a shared 2-vCPU host drift by 20-30% between
// runs of the same code, more than the largest bound the gate allows.
// hm-echo is not gated either: its throughput follows the host's fast
// and slow states more than any other workload's, and hm-ycsb and
// pbft-echo between them measure every layer it does.
var workloads = []workload{
	{name: "hm-echo", protocol: bench.NeoHM},
	{name: "hm-ycsb", protocol: bench.NeoHM, kv: true, gated: true},
	{name: "pbft-echo", protocol: bench.PBFT, gated: true},
	{name: "pbft-udp", protocol: bench.PBFT, udp: true},
	{name: "hm-loss", protocol: bench.NeoHM, dropRate: 1e-3},
}

const (
	// clientTimeout is the client's first retransmission interval; it
	// is also the threshold above which a gap between completions
	// counts toward stall_s.
	clientTimeout = time.Second
	// opTimeout bounds one operation inside the client (the bench
	// default). The generator never waits for it: drains are bounded by
	// drainBound instead.
	opTimeout = 30 * time.Second
	// drainBound is how long a phase waits, after its window closes,
	// for in-flight operations before counting them unfinished.
	drainBound = 2 * clientTimeout
	// echoSize is the echo payload size (§6.2 of the paper).
	echoSize = 64
	// satWindow is each sat-phase client's in-flight window; it is the
	// window every client of the system is built with.
	satWindow = 16
	// ringSize is how many operations each client pre-generates; the
	// client cycles through them so generation costs nothing per op.
	ringSize = 4096
)

var ycsbA = ycsb.WorkloadA()

// options builds the bench options of one system instance. fab and
// wrapApp are nil except in the traced run.
func (w workload) options(seed int64, fab *fabricTap, wrapApp func(replication.App) replication.App) bench.Options {
	o := bench.Options{
		Protocol:      w.protocol,
		Net:           simnet.Options{Seed: seed},
		ClientTimeout: clientTimeout,
		ClientWindow:  satWindow,
		DropRate:      w.dropRate,
	}
	switch {
	case fab != nil:
		// Build ignores DropRate with a caller-supplied fabric; the
		// traced run sets the same loss through the fabric's
		// LossInjector.
		o.Fabric, o.Transport = fab.fabric(), fab.kind
	case w.udp:
		o.Transport = "udp"
	}
	app := func() replication.App { return replication.EchoApp{} }
	if w.kv {
		app = func() replication.App {
			s := kvstore.NewStore()
			ycsb.Load(s, ycsbA)
			return s
		}
	}
	o.AppFactory = func(int) replication.App {
		a := app()
		if wrapApp != nil {
			a = wrapApp(a)
		}
		return a
	}
	return o
}

// opRing is one client's pre-generated operation stream.
type opRing struct {
	ops  [][]byte
	next int
}

func (r *opRing) take() []byte {
	op := r.ops[r.next]
	r.next = (r.next + 1) % len(r.ops)
	return op
}

// ring generates client's operation stream from the seed: the same seed
// and client give the same operations.
func (w workload) ring(seed int64, client int) *opRing {
	r := &opRing{ops: make([][]byte, ringSize)}
	if w.kv {
		g := ycsb.NewGenerator(ycsbA, seed*1_000_003+int64(client))
		for i := range r.ops {
			r.ops[i] = g.Next()
		}
		return r
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	for i := range r.ops {
		op := make([]byte, echoSize)
		rng.Read(op)
		r.ops[i] = op
	}
	return r
}

// probe is the operation whose commit ends set-up.
func (w workload) probe() []byte {
	if w.kv {
		return kvstore.EncodeGet(ycsb.Key(0))
	}
	return bytes.Repeat([]byte{'p'}, echoSize)
}

// check validates one reply against its request; it returns "" when the
// reply is correct and a description of the mismatch otherwise.
func (w workload) check(op, result []byte) string {
	if !w.kv {
		if !bytes.Equal(op, result) {
			return fmt.Sprintf("echo reply %x differs from request %x", clip(result), clip(op))
		}
		return ""
	}
	if len(op) == 0 {
		return "empty kv op"
	}
	switch op[0] {
	case kvstore.OpGet:
		// YCSB-A reads only preloaded keys and never deletes, so every
		// read must find a value of the preloaded field length.
		v, found := kvstore.DecodeGetResult(result)
		if !found || len(v) != ycsbA.FieldLength {
			return fmt.Sprintf("get returned found=%v len=%d for a preloaded key", found, len(v))
		}
	case kvstore.OpPut:
		// An update of a preloaded key reports that the key existed.
		if len(result) != 1 || result[0] != 1 {
			return fmt.Sprintf("put of a preloaded key returned %x", clip(result))
		}
	default:
		return fmt.Sprintf("unexpected kv op code %d", op[0])
	}
	return ""
}

func clip(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}
