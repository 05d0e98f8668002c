package replication

import (
	"crypto/sha256"
	"errors"
	"sync"

	"neobft/internal/wire"
)

// Snapshotter is the state-transfer extension of App: applications that
// implement it can be checkpointed and restored, so a lagging replica
// receives a snapshot plus the log suffix instead of replaying the log
// from slot 1 (§B.2). Snapshot must be deterministic — two replicas with
// identical state return identical bytes — because checkpoint digests
// are computed over it. Restore replaces the application state wholesale
// with the snapshotted one.
type Snapshotter interface {
	Snapshot() []byte
	Restore(data []byte) error
}

// Checkpointer is a Snapshotter that digests its own state, typically
// incrementally, so a checkpoint need not serialize and hash the whole
// state. Checkpoint returns the digest of the current state and a
// function producing that state's Snapshot bytes; the function must
// return the same bytes however the application changes after the call.
// SnapshotDigest is a pure function of Snapshot bytes: for the bytes of
// any state it returns the digest Checkpoint reports for that state, and
// it rejects bytes Restore would reject. Digests must be collision
// resistant commitments to the state.
type Checkpointer interface {
	Snapshotter
	Checkpoint() (digest [32]byte, snapshot func() []byte)
	SnapshotDigest(snapshot []byte) ([32]byte, error)
}

// AsCheckpointer returns app's Checkpointer. A Snapshotter without one
// is digested as SHA-256 of its full Snapshot; an application without
// snapshots has an empty state.
func AsCheckpointer(app App) Checkpointer {
	switch a := app.(type) {
	case Checkpointer:
		return a
	case Snapshotter:
		return fullCapture{a}
	}
	return fullCapture{noState{}}
}

// fullCapture adapts a plain Snapshotter: every checkpoint serializes
// and hashes the whole state.
type fullCapture struct{ Snapshotter }

func (f fullCapture) Checkpoint() ([32]byte, func() []byte) {
	b := f.Snapshot()
	return sha256.Sum256(b), func() []byte { return b }
}

func (fullCapture) SnapshotDigest(b []byte) ([32]byte, error) { return sha256.Sum256(b), nil }

// noState is the empty state of an application without snapshots.
type noState struct{}

func (noState) Snapshot() []byte { return nil }

func (noState) Restore(data []byte) error {
	if len(data) != 0 {
		return errSnapshotBundle
	}
	return nil
}

// stateDomain separates replica state digests from every other SHA-256
// input in the system.
const stateDomain = "neobft/replication/state/v1"

// stateDigest commits to a replica's checkpointed state:
// SHA-256(stateDomain ‖ app digest ‖ SHA-256(client-table bytes)).
func stateDigest(app [32]byte, table []byte) [32]byte {
	tableD := sha256.Sum256(table)
	buf := make([]byte, 0, len(stateDomain)+64)
	buf = append(buf, stateDomain...)
	buf = append(buf, app[:]...)
	buf = append(buf, tableD[:]...)
	return sha256.Sum256(buf)
}

// Capture is one checkpoint of a replica's state: the application state
// plus the client table. The client table must travel with the
// application state: without it a restored replica would re-execute
// duplicate client requests occupying later log slots and diverge.
// StateDigest is what every protocol's checkpoint digest covers; Bytes
// is the bundle state transfer ships and persistence stores, built on
// first use.
type Capture struct {
	StateDigest [32]byte

	once  sync.Once
	app   func() []byte
	table []byte
	bytes []byte
}

// CaptureSnapshot checkpoints the application and the client table.
// The client table is serialized now; the application's snapshot bytes
// are produced only if Bytes is called.
func CaptureSnapshot(app App, table *ClientTable) *Capture {
	appD, appB := AsCheckpointer(app).Checkpoint()
	tableB := table.Snapshot()
	return &Capture{StateDigest: stateDigest(appD, tableB), app: appB, table: tableB}
}

// Bytes returns the snapshot bundle: VarBytes(app snapshot) ‖
// VarBytes(client table). The result is shared; callers must not modify
// it.
func (c *Capture) Bytes() []byte {
	c.once.Do(func() {
		if c.bytes != nil {
			return
		}
		appB := c.app()
		w := wire.NewWriter(8 + len(appB) + len(c.table))
		w.VarBytes(appB)
		w.VarBytes(c.table)
		c.bytes, c.app, c.table = w.Bytes(), nil, nil
	})
	return c.bytes
}

var errSnapshotBundle = errors.New("replication: malformed snapshot bundle")

var errSnapshotDigest = errors.New("replication: snapshot does not match its certified digest")

// InstallSnapshot verifies a snapshot bundle and installs it into the
// application and client table. The state digest is recomputed from the
// received bytes, and want — which compares it with the digest a
// checkpoint certificate binds — must accept it before any state is
// replaced; on any error the application and table are untouched. It
// returns the Capture serving the installed bundle. The caller is
// responsible for re-stamping cached replies (ClientTable.Reauth)
// afterwards.
func InstallSnapshot(app App, table *ClientTable, data []byte, want func(stateDigest [32]byte) bool) (*Capture, error) {
	rd := wire.NewReader(data)
	appB := rd.VarBytes()
	tableB := rd.VarBytes()
	if rd.Done() != nil {
		return nil, errSnapshotBundle
	}
	ck := AsCheckpointer(app)
	appD, err := ck.SnapshotDigest(appB)
	if err != nil {
		return nil, err
	}
	d := stateDigest(appD, tableB)
	if !want(d) {
		return nil, errSnapshotDigest
	}
	restored := NewClientTable()
	if err := restored.Restore(tableB); err != nil {
		return nil, err
	}
	if err := ck.Restore(appB); err != nil {
		return nil, err
	}
	table.entries = restored.entries
	return &Capture{StateDigest: d, bytes: data}, nil
}
