package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neobft/internal/kvstore"
	"neobft/internal/metrics"
	"neobft/internal/replication"
)

// fastOpts keeps test stores snappy: no linger, no real fsync.
func fastOpts() Options {
	return Options{FsyncLinger: -1, NoSync: true}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Recovered(); r.Checkpoint != nil || len(r.Ops) != 0 || r.Torn {
		t.Fatalf("fresh dir recovered %+v", r)
	}
	for i := 0; i < 10; i++ {
		if err := s.AppendOp(uint64(i+1), []byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendCheckpoint(100, []byte("ckpt-100")); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 13; i++ {
		if err := s.AppendOp(uint64(i+1), []byte(fmt.Sprintf("op-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r := s2.Recovered()
	if !bytes.Equal(r.Checkpoint, []byte("ckpt-100")) || r.Slot != 100 {
		t.Fatalf("recovered checkpoint %q slot %d", r.Checkpoint, r.Slot)
	}
	if len(r.Ops) != 3 || !bytes.Equal(r.Ops[0], []byte("op-10")) {
		t.Fatalf("recovered ops %d %q", len(r.Ops), r.Ops)
	}
	if r.Torn {
		t.Fatal("clean shutdown reported torn")
	}
	// The store stays appendable after recovery.
	if err := s2.AppendCheckpoint(132, []byte("ckpt-132")); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointSupersedesOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.AppendOp(uint64(i+1), []byte("old"))
	}
	s.AppendCheckpoint(50, []byte("a"))
	s.AppendCheckpoint(80, []byte("b"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r := s2.Recovered()
	if !bytes.Equal(r.Checkpoint, []byte("b")) || r.Slot != 80 {
		t.Fatalf("want newest checkpoint, got %q slot %d", r.Checkpoint, r.Slot)
	}
	if len(r.Ops) != 0 {
		t.Fatalf("ops below the checkpoint must be dropped, got %d", len(r.Ops))
	}
}

// TestTornTail truncates and corrupts the WAL at seeded random
// offsets and asserts recovery stops at the last fully valid record.
func TestTornTail(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(rng *rand.Rand, path string, size int64) error
	}{
		{"truncate", func(rng *rand.Rand, path string, size int64) error {
			return os.Truncate(path, rng.Int63n(size-1)+1)
		}},
		{"corrupt-byte", func(rng *rand.Rand, path string, size int64) error {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			off := rng.Int63n(size)
			_, err = f.WriteAt([]byte{0xff}, off)
			return err
		}},
		{"truncate-and-corrupt", func(rng *rand.Rand, path string, size int64) error {
			n := rng.Int63n(size-1) + 1
			if err := os.Truncate(path, n); err != nil {
				return err
			}
			if n < 2 {
				return nil
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.WriteAt([]byte{0x00}, rng.Int63n(n))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 20; trial++ {
				dir := t.TempDir()
				s, err := Open(dir, fastOpts())
				if err != nil {
					t.Fatal(err)
				}
				const nRecs = 30
				for i := 0; i < nRecs; i++ {
					if i%7 == 6 {
						s.AppendCheckpoint(uint64(i), []byte(fmt.Sprintf("ckpt-%d", i)))
					} else {
						s.AppendOp(uint64(i), []byte(fmt.Sprintf("payload-%d", i)))
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}

				segs, err := listSegments(dir)
				if err != nil || len(segs) == 0 {
					t.Fatalf("segments: %v %d", err, len(segs))
				}
				seg := segs[len(segs)-1]
				if err := tc.mangle(rng, seg.path, seg.bytes); err != nil {
					t.Fatal(err)
				}

				s2, err := Open(dir, fastOpts())
				if err != nil {
					t.Fatalf("trial %d: recovery failed: %v", trial, err)
				}
				r := s2.Recovered()
				// Every surviving record must be one we wrote, in
				// order — recovery never invents or reorders.
				if r.Records > nRecs {
					t.Fatalf("trial %d: %d records from %d written", trial, r.Records, nRecs)
				}
				if r.Checkpoint != nil && !bytes.HasPrefix(r.Checkpoint, []byte("ckpt-")) {
					t.Fatalf("trial %d: bogus checkpoint %q", trial, r.Checkpoint)
				}
				for _, op := range r.Ops {
					if !bytes.HasPrefix(op, []byte("payload-")) {
						t.Fatalf("trial %d: bogus op %q", trial, op)
					}
				}
				// The tail is writable again: a fresh append and a
				// clean reopen must succeed.
				if err := s2.AppendCheckpoint(999, []byte("ckpt-after")); err != nil {
					t.Fatal(err)
				}
				if err := s2.Close(); err != nil {
					t.Fatal(err)
				}
				s3, err := Open(dir, fastOpts())
				if err != nil {
					t.Fatal(err)
				}
				if got := s3.Recovered().Checkpoint; !bytes.Equal(got, []byte("ckpt-after")) {
					t.Fatalf("trial %d: post-repair checkpoint %q", trial, got)
				}
				s3.Close()
			}
		})
	}
}

func TestSegmentRollAndRetention(t *testing.T) {
	dir := t.TempDir()
	o := fastOpts()
	o.SegmentBytes = 256 // force frequent rolls
	o.SnapshotEvery = 2
	o.KeepSnapshots = 2
	reg := metrics.NewRegistry()
	o.Metrics = reg
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s.AppendOp(uint64(i), bytes.Repeat([]byte{byte(i)}, 64))
		if i%4 == 3 {
			if err := s.AppendCheckpoint(uint64(i), []byte(fmt.Sprintf("ckpt-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) == 0 || len(segs) > 6 {
		t.Fatalf("retention left %d segments", len(segs))
	}
	snaps, _ := listSnapshots(dir, false)
	if len(snaps) == 0 || len(snaps) > 2 {
		t.Fatalf("retention left %d snapshots", len(snaps))
	}
	if g := reg.Gauge("store_wal_segments").Load(); g != int64(len(segs)) {
		t.Fatalf("segment gauge %d, dir has %d", g, len(segs))
	}

	s2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Recovered().Checkpoint; !bytes.Equal(got, []byte("ckpt-39")) {
		t.Fatalf("recovered %q after retention", got)
	}
}

// TestGroupCommit shows fsync amortization: many concurrent
// acknowledged appends complete with far fewer fsyncs than records.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	o := Options{FsyncLinger: 2 * time.Millisecond, Metrics: reg}
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.AppendCheckpoint(uint64(w*each+i), []byte("blob")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	recs := reg.Counter("store_wal_records_total").Load()
	syncs := reg.Counter("store_fsync_total").Load()
	if recs != writers*each {
		t.Fatalf("records %d", recs)
	}
	if syncs == 0 || syncs >= recs {
		t.Fatalf("no group-commit amortization: %d fsyncs for %d records", syncs, recs)
	}
}

func TestSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	o := fastOpts()
	o.SnapshotEvery = 1 // every checkpoint promotes
	o.KeepSnapshots = 3
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendCheckpoint(10, []byte("first"))
	s.AppendCheckpoint(20, []byte("second"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Also delete the WAL so only snapshots remain, then damage the
	// newest: recovery must fall back to the older one.
	segs, _ := listSegments(dir)
	for _, seg := range segs {
		os.Remove(seg.path)
	}
	snaps, _ := listSnapshots(dir, false)
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots", len(snaps))
	}
	if err := os.Truncate(snaps[0].path, 10); err != nil {
		t.Fatal(err)
	}
	// A leftover tmp from an interrupted promotion must be ignored.
	os.WriteFile(filepath.Join(dir, snapName(99)+".tmp"), []byte("junk"), 0o644)

	s2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r := s2.Recovered()
	if !bytes.Equal(r.Checkpoint, []byte("first")) || r.Slot != 10 {
		t.Fatalf("fallback recovered %q slot %d", r.Checkpoint, r.Slot)
	}
	// New appends must land above the recovered snapshot's index.
	if err := s2.AppendCheckpoint(30, []byte("third")); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	s, err := Open(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCheckpoint(1, []byte("x")); err != ErrClosed {
		t.Fatalf("append on closed store: %v", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestDurableAppJournals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	app := Durable(&countingApp{}, s)
	for i := 0; i < 5; i++ {
		app.Execute([]byte(fmt.Sprintf("op-%d", i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	r := s2.Recovered()
	if len(r.Ops) != 5 || !bytes.Equal(r.Ops[4], []byte("op-4")) {
		t.Fatalf("journal %d ops %q", len(r.Ops), r.Ops)
	}
}

// TestDurableForwardsCheckpointer: wrapping the kv store in Durable
// keeps its incremental checkpoints — Durable(kv) and kv report the
// same checkpoint and state digests at every step (a full-capture
// fallback would digest SHA-256 of the snapshot instead).
func TestDurableForwardsCheckpointer(t *testing.T) {
	s, err := Open(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plain, wrapped := kvstore.NewStore(), kvstore.NewStore()
	app := Durable(wrapped, s)
	ck, ok := app.(replication.Checkpointer)
	if !ok {
		t.Fatal("Durable hides replication.Checkpointer")
	}
	table := replication.NewClientTable()
	for round := 0; round < 4; round++ {
		for i := 0; i < 300; i++ {
			op := kvstore.EncodePut(fmt.Sprintf("k%04d", (i*7+round*13)%500), []byte{byte(round)})
			plain.Execute(op)
			app.Execute(op)
		}
		want, _ := plain.Checkpoint()
		got, snap := ck.Checkpoint()
		if got != want {
			t.Fatalf("round %d: Durable(kv) checkpoint digest %x, kv %x", round, got[:6], want[:6])
		}
		if d, err := ck.SnapshotDigest(snap()); err != nil || d != want {
			t.Fatalf("round %d: SnapshotDigest through Durable = %x, %v", round, d[:6], err)
		}
		if a, b := replication.CaptureSnapshot(app, table), replication.CaptureSnapshot(plain, table); a.StateDigest != b.StateDigest {
			t.Fatalf("round %d: state digests differ through Durable", round)
		}
	}
}

type countingApp struct{ n int }

func (a *countingApp) Execute(op []byte) ([]byte, func()) {
	a.n++
	return []byte("ok"), nil
}

// BenchmarkWALAppend measures the acknowledged (group-committed)
// checkpoint append path — one of the bench-gate metrics.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{FsyncLinger: 200 * time.Microsecond, SegmentBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte{0xab}, 1024)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			if err := s.AppendCheckpoint(i, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// A persister whose store is closed underneath it must report
// ErrClosed and must not count the failed blob as persisted.
func TestPersisterReportsClosedStore(t *testing.T) {
	st, err := Open(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var slot atomic.Uint64
	slot.Store(1)
	p := StartPersister(st, time.Millisecond, func() (uint64, []byte) {
		s := slot.Load()
		return s, []byte(fmt.Sprintf("ckpt-%d", s))
	})
	for deadline := time.Now().Add(5 * time.Second); p.DurableSlot() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("persister never made the first checkpoint durable")
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	slot.Store(2)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		t.Fatal("persister kept running after its store failed")
	}
	if err := p.Stop(true); !errors.Is(err, ErrClosed) {
		t.Fatalf("Stop() = %v, want ErrClosed", err)
	}
	if got := p.DurableSlot(); got != 1 {
		t.Fatalf("DurableSlot() = %d after a failed append, want 1", got)
	}
	if p.last != sha256.Sum256([]byte("ckpt-1")) {
		t.Fatal("failed blob was recorded as the last one persisted")
	}
}
