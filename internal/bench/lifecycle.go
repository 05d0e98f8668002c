package bench

import (
	"errors"
	"fmt"
	"os"
	"time"

	"neobft/internal/chaos"
	"neobft/internal/sequencer"
	"neobft/internal/store"
	"neobft/internal/transport"
)

// Crash persists replica i's stable checkpoint, stops it, and detaches
// it from the network. In durable mode the persister takes the final
// capture into the store; the error reports a failed append.
func (sys *System) Crash(i int) error { return sys.halt(i, true) }

// Kill stops replica i without the graceful final persist — the
// in-process stand-in for SIGKILL. In durable mode the disk keeps
// whatever the background persister last wrote; in memory mode the
// old blob (from a previous crash, possibly stale) is discarded, so a
// warm restart behaves like a cold one.
func (sys *System) Kill(i int) error { return sys.halt(i, false) }

func (sys *System) halt(i int, graceful bool) error {
	sys.life.Lock()
	defer sys.life.Unlock()
	if i < 0 || i >= len(sys.reps) {
		return fmt.Errorf("bench: no replica %d", i)
	}
	r := sys.reps[i]
	if !sys.Alive(i) {
		return fmt.Errorf("bench: replica %d already down", i)
	}
	var err error
	if p := sys.takePersister(r); p != nil {
		if err = p.Stop(graceful); err != nil {
			err = fmt.Errorf("bench: replica %d: %w", i, err)
		}
	}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if r.store == nil {
		r.blob = nil
		if graceful {
			r.blob = r.node.handle.Persist()
		}
	}
	r.node.handle.Close()
	if r.store != nil {
		// Process death: the store's file handles go away. Close is the
		// simulation's stand-in — the WAL bytes were written (write(2)
		// survives SIGKILL); only the final graceful capture is what a
		// kill loses.
		if cerr := r.store.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("bench: replica %d: close store: %w", i, cerr)
		}
	}
	r.busyBase += r.rt.Busy()
	r.conn.Close()
	r.alive = false
	return err
}

// Restart rejoins the network under the same node ID and boots a
// replacement replica: warm from its persisted checkpoint — read back
// from the replica's data dir in durable mode, from the in-memory
// crash blob otherwise — or cold (state wiped, recovery from peers).
func (sys *System) Restart(i int, cold bool) error {
	sys.life.Lock()
	defer sys.life.Unlock()
	if i < 0 || i >= len(sys.reps) {
		return fmt.Errorf("bench: no replica %d", i)
	}
	r := sys.reps[i]
	if sys.Alive(i) {
		return fmt.Errorf("bench: replica %d already running", i)
	}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	restore := r.blob
	if r.store != nil {
		if cold {
			if err := os.RemoveAll(r.store.Dir()); err != nil {
				return fmt.Errorf("bench: wipe replica %d data dir: %w", i, err)
			}
		}
		if err := sys.openStore(r); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
		restore = r.store.Recovered().Checkpoint
	} else if cold {
		restore = nil
	}
	conn, err := sys.Net.Join(sys.mem[i])
	if err != nil {
		return fmt.Errorf("bench: rejoin replica %d: %w", i, err)
	}
	r.conn.swap(conn)
	sys.boot(r, restore)
	return nil
}

// takePersister detaches replica r's running persister (nil if none)
// so the caller can stop it without holding mu: the persister's final
// capture reads protocol state, and readers must not wait on it.
func (sys *System) takePersister(r *replica) *store.Persister {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	p := r.persister
	r.persister = nil
	return p
}

// Close stops every replica, the fabric and the durable stores. It
// reports any checkpoint append or store close that failed.
func (sys *System) Close() error {
	if sys.spanSink != nil {
		sys.spanSink(sys.DrainSpans())
	}
	sys.life.Lock()
	defer sys.life.Unlock()
	var errs []error
	for _, r := range sys.reps {
		if p := sys.takePersister(r); p != nil {
			errs = append(errs, p.Stop(false))
		}
	}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	for _, r := range sys.reps {
		r.node.handle.Close()
	}
	sys.Net.Close()
	for _, r := range sys.reps {
		if r.store != nil {
			errs = append(errs, r.store.Close())
		}
	}
	return errors.Join(errs...)
}

// Alive reports whether replica i is running.
func (sys *System) Alive(i int) bool {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	return i >= 0 && i < len(sys.reps) && sys.reps[i].alive
}

// SkewClock multiplies replica i's timer durations by factor.
func (sys *System) SkewClock(i int, factor float64) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if i >= 0 && i < len(sys.reps) && sys.reps[i].alive {
		sys.reps[i].rt.SetTimerScale(factor)
	}
}

// Committed reports ops executed at replica 0 (0 while it is down).
func (sys *System) Committed() uint64 {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if !sys.reps[0].alive {
		return 0
	}
	return sys.reps[0].node.executed()
}

// ExecutedAt reports replica i's restart-stable log progress (0 while
// it is down).
func (sys *System) ExecutedAt(i int) uint64 {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if i < 0 || i >= len(sys.reps) || !sys.reps[i].alive {
		return 0
	}
	return sys.reps[i].node.progress()
}

// ReplicaID maps replica index to network node ID.
func (sys *System) ReplicaID(i int) transport.NodeID { return sys.mem[i] }

// PerReplicaBusy reports per-replica handler busy time (verification +
// apply) summed across incarnations. The busy time of the busiest
// replica is what bounds throughput when every replica has its own
// machine (the paper's deployment), so ops ÷ max-busy-time projects the
// bottleneck throughput from a co-located run.
func (sys *System) PerReplicaBusy() []time.Duration {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	out := make([]time.Duration, len(sys.reps))
	for i, r := range sys.reps {
		out[i] = r.busyBase + r.rt.Busy()
	}
	return out
}

// PerReplicaMsgs returns inbound packet counts per replica.
func (sys *System) PerReplicaMsgs() []uint64 {
	out := make([]uint64, len(sys.reps))
	for i, r := range sys.reps {
		out[i] = r.conn.count.Load()
	}
	return out
}

// PerReplicaPkts returns per-replica rx+tx packet counts.
func (sys *System) PerReplicaPkts() []uint64 {
	out := make([]uint64, len(sys.reps))
	for i, r := range sys.reps {
		out[i] = r.conn.count.Load() + r.conn.sent.Load()
	}
	return out
}

// AuthOps sums authenticator operations (tags + verifies) over all
// replicas, including client-facing MACs and, for MinBFT, the USIG
// calls that are its authenticators.
func (sys *System) AuthOps() uint64 {
	var sum uint64
	for _, r := range sys.reps {
		sum += r.auth.Stats().TagOps.Load() + r.auth.Stats().VerifyOps.Load()
		sum += r.cside.Stats().TagOps.Load() + r.cside.Stats().VerifyOps.Load()
	}
	for _, u := range sys.usigs {
		sum += u.Ops()
	}
	return sum
}

// CrashSequencer crashes the live sequencer switch. It reports false
// for systems without one (every protocol but NeoBFT).
func (sys *System) CrashSequencer() bool {
	if sys.Svc == nil {
		return false
	}
	v, err := sys.Svc.View(1)
	if err != nil {
		return false
	}
	for _, h := range sys.Switches {
		if h.ID == v.Sequencer {
			h.SW.SetFault(sequencer.FaultCrash)
			return true
		}
	}
	return false
}

// fleet adapts the system to the chaos executor's fault surface.
func (sys *System) fleet() chaos.Fleet {
	return chaos.Fleet{
		Net:            sys.Net,
		Replicas:       sys.NumReplicas,
		ReplicaID:      sys.ReplicaID,
		Crash:          sys.Crash,
		Kill:           sys.Kill,
		Restart:        sys.Restart,
		Alive:          sys.Alive,
		SkewClock:      sys.SkewClock,
		CrashSequencer: sys.CrashSequencer,
		Executed:       sys.ExecutedAt,
		Tracer:         sys.chaosTr,
	}
}
