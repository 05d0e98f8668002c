package store

import (
	"sync/atomic"

	"neobft/internal/replication"
)

// Durable wraps a replicated application so that every executed
// operation is journaled to the store's WAL as a write-behind
// RecordOp. Execution never blocks on the disk: the record rides the
// next group-commit fsync batch, and the append→fsync latency is
// visible in the store_wal_append_ns histogram. Protocol-level
// durability comes from the checkpoint records the Persister
// appends, not from this journal (see the package comment).
//
// The wrapper always implements replication.Checkpointer, delegating
// to replication.AsCheckpointer(app): an incremental application keeps
// its incremental checkpoints, and CaptureSnapshot and InstallSnapshot
// see the same state whether or not the application is wrapped.
func Durable(app replication.App, st *Store) replication.App {
	return &durableApp{Checkpointer: replication.AsCheckpointer(app), inner: app, st: st}
}

type durableApp struct {
	replication.Checkpointer
	inner replication.App
	st    *Store
	seq   atomic.Uint64
}

func (d *durableApp) Execute(op []byte) ([]byte, func()) {
	// Journal first so the WAL order matches execution order even
	// under a concurrent snapshot.
	d.st.AppendOp(d.seq.Add(1), op)
	return d.inner.Execute(op)
}
