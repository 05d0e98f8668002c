package replication

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"neobft/internal/kvstore"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// kvBundle builds a kv store with n keys and a client table with one
// cached reply, and captures them.
func kvBundle(t *testing.T, n int) (*kvstore.Store, *ClientTable, *Capture) {
	t.Helper()
	kv := kvstore.NewStore()
	for i := 0; i < n; i++ {
		kv.Execute(kvstore.EncodePut(fmt.Sprintf("key-%05d", i), []byte(fmt.Sprintf("value-%d", i))))
	}
	table := NewClientTable()
	table.Store(transport.NodeID(7), 3, &Reply{ReqID: 3, Result: []byte("ok")})
	return kv, table, CaptureSnapshot(kv, table)
}

// splitBundle returns a bundle's app and client-table sections.
func splitBundle(t *testing.T, b []byte) (app, table []byte) {
	t.Helper()
	rd := wire.NewReader(b)
	app, table = rd.VarBytes(), rd.VarBytes()
	if rd.Done() != nil {
		t.Fatal("malformed bundle")
	}
	return app, table
}

func joinBundle(app, table []byte) []byte {
	w := wire.NewWriter(8 + len(app) + len(table))
	w.VarBytes(app)
	w.VarBytes(table)
	return w.Bytes()
}

// swapFirstChunks swaps the first two chunks of kv Snapshot bytes, cut
// with the kv store's chunk rule: every byte survives, only the order
// changes.
func swapFirstChunks(t *testing.T, snap []byte) []byte {
	t.Helper()
	rd := wire.NewReader(snap)
	n := rd.U32()
	var cuts []int
	for i := uint32(0); i < n && len(cuts) < 2; i++ {
		k := rd.VarBytes()
		rd.VarBytes()
		h := sha256.Sum256(k)
		if binary.BigEndian.Uint64(h[:8])%32 == 0 {
			cuts = append(cuts, len(snap)-rd.Remaining())
		}
	}
	if len(cuts) < 2 {
		t.Fatal("snapshot has fewer than three chunks")
	}
	out := append([]byte(nil), snap[:4]...)
	out = append(out, snap[cuts[0]:cuts[1]]...)
	out = append(out, snap[4:cuts[0]]...)
	return append(out, snap[cuts[1]:]...)
}

// TestInstallSnapshotRejectsTampering: a kv bundle with one flipped
// value byte, two chunks swapped, or a changed client table does not
// match the certified digest, and InstallSnapshot leaves the
// application and the client table untouched. The honest bundle
// installs and reproduces the digest.
func TestInstallSnapshotRejectsTampering(t *testing.T) {
	_, _, c := kvBundle(t, 400)
	good := c.Bytes()
	app, table := splitBundle(t, good)

	flipped := append([]byte(nil), app...)
	flipped[len(flipped)-1] ^= 1 // the last value's last byte
	tables := NewClientTable()
	tables.Store(transport.NodeID(7), 4, &Reply{ReqID: 4, Result: []byte("ok")})
	tampered := map[string][]byte{
		"flipped value byte":   joinBundle(flipped, table),
		"swapped chunks":       joinBundle(swapFirstChunks(t, app), table),
		"changed client table": joinBundle(app, tables.Snapshot()),
		"truncated":            good[:len(good)-1],
	}
	certified := func(d [32]byte) bool { return d == c.StateDigest }

	target, targetTable, before := kvBundle(t, 50)
	for name, b := range tampered {
		if _, err := InstallSnapshot(target, targetTable, b, certified); err == nil {
			t.Fatalf("%s: installed", name)
		}
		if after := CaptureSnapshot(target, targetTable); after.StateDigest != before.StateDigest ||
			!bytes.Equal(after.Bytes(), before.Bytes()) {
			t.Fatalf("%s: rejected bundle changed the replica's state", name)
		}
	}

	installed, err := InstallSnapshot(target, targetTable, good, certified)
	if err != nil {
		t.Fatal(err)
	}
	if installed.StateDigest != c.StateDigest || !bytes.Equal(installed.Bytes(), good) {
		t.Fatal("installed capture does not serve the certified bundle")
	}
	if got := CaptureSnapshot(target, targetTable); got.StateDigest != c.StateDigest || !bytes.Equal(got.Bytes(), good) {
		t.Fatal("re-capture after install differs from the certified state")
	}
}

// plainApp is a Snapshotter without its own digest.
type plainApp struct{ state []byte }

func (a *plainApp) Execute(op []byte) ([]byte, func()) {
	a.state = append(a.state, op...)
	return nil, nil
}
func (a *plainApp) Snapshot() []byte       { return append([]byte(nil), a.state...) }
func (a *plainApp) Restore(b []byte) error { a.state = append([]byte(nil), b...); return nil }

// TestAsCheckpointerAdapters: a plain Snapshotter digests SHA-256 of its
// full snapshot, an app without snapshots has the empty state, and both
// round-trip through InstallSnapshot.
func TestAsCheckpointerAdapters(t *testing.T) {
	app := &plainApp{state: []byte("abc")}
	d, snap := AsCheckpointer(app).Checkpoint()
	app.Execute([]byte("def"))
	if d != sha256.Sum256([]byte("abc")) || string(snap()) != "abc" {
		t.Fatalf("plain adapter: digest %x bytes %q", d[:4], snap())
	}

	table := NewClientTable()
	c := CaptureSnapshot(app, table)
	other := &plainApp{}
	if _, err := InstallSnapshot(other, NewClientTable(), c.Bytes(), func(d [32]byte) bool { return d == c.StateDigest }); err != nil {
		t.Fatal(err)
	}
	if string(other.state) != "abcdef" {
		t.Fatalf("restored %q", other.state)
	}

	echo := CaptureSnapshot(EchoApp{}, table)
	none := CaptureSnapshot(struct{ App }{EchoApp{}}, table) // hides Snapshotter
	if echo.StateDigest != none.StateDigest {
		t.Fatal("stateless app and app without snapshots digest differently")
	}
	if _, err := InstallSnapshot(struct{ App }{EchoApp{}}, NewClientTable(), c.Bytes(), func([32]byte) bool { return true }); err == nil {
		t.Fatal("app without snapshots accepted a non-empty app section")
	}
}
