package kvstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refSnapshot serializes a map the way Snapshot specifies, straight from
// the map: a U32 count, then VarBytes key and value in key order.
func refSnapshot(m map[string][]byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(keys)))
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(k)))
		out = append(out, k...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(m[k])))
		out = append(out, m[k]...)
	}
	return out
}

// refDigest is an independent statement of the chunk rule: cut the
// sorted items after every boundary key, hash each chunk, then hash
// domain ‖ count ‖ chunk digests.
func refDigest(m map[string][]byte) (digest [32]byte, chunks int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var digests []byte
	var cur []byte
	flush := func() {
		d := sha256.Sum256(cur)
		digests = append(digests, d[:]...)
		cur = nil
		chunks++
	}
	for _, k := range keys {
		cur = binary.LittleEndian.AppendUint32(cur, uint32(len(k)))
		cur = append(cur, k...)
		cur = binary.LittleEndian.AppendUint32(cur, uint32(len(m[k])))
		cur = append(cur, m[k]...)
		kh := sha256.Sum256([]byte(k))
		if binary.BigEndian.Uint64(kh[:8])%chunkSpread == 0 {
			flush()
		}
	}
	if len(cur) > 0 {
		flush()
	}
	in := append([]byte(appDomain), binary.LittleEndian.AppendUint32(nil, uint32(len(keys)))...)
	return sha256.Sum256(append(in, digests...)), chunks
}

// checkStore asserts that s holds m and that its incremental digest,
// its Snapshot bytes and SnapshotDigest all agree with the reference.
func checkStore(t *testing.T, s *Store, m map[string][]byte) [32]byte {
	t.Helper()
	d, snap := s.Checkpoint()
	want, chunks := refDigest(m)
	if d != want {
		t.Fatalf("incremental digest %x, reference %x (%d keys)", d[:6], want[:6], len(m))
	}
	b := snap()
	if !bytes.Equal(b, refSnapshot(m)) {
		t.Fatalf("checkpoint bytes differ from the reference serialization (%d keys)", len(m))
	}
	if sd, err := s.SnapshotDigest(b); err != nil || sd != d {
		t.Fatalf("SnapshotDigest = %x, %v; want %x", sd[:6], err, d[:6])
	}
	if got := len(s.idx.chunks); got != chunks {
		t.Fatalf("index holds %d chunks, reference cuts %d", got, chunks)
	}
	return d
}

// history applies ops to a Store and to a model map, keeping both
// rollback stacks.
type history struct {
	s     *Store
	m     map[string][]byte
	undos []func()
	model []func() // model rollbacks, parallel to undos
}

func (h *history) put(k string, v []byte) {
	_, undo := h.s.Execute(EncodePut(k, v))
	old, existed := h.m[k]
	h.m[k] = v
	h.push(undo, func() {
		if existed {
			h.m[k] = old
		} else {
			delete(h.m, k)
		}
	})
}

func (h *history) del(k string) {
	_, undo := h.s.Execute(EncodeDelete(k))
	old, existed := h.m[k]
	if !existed {
		return
	}
	delete(h.m, k)
	h.push(undo, func() { h.m[k] = old })
}

func (h *history) push(undo, model func()) {
	h.undos = append(h.undos, undo)
	h.model = append(h.model, model)
}

// rollback undoes the last n ops in LIFO order, as NeoBFT does.
func (h *history) rollback(n int) {
	for ; n > 0 && len(h.undos) > 0; n-- {
		i := len(h.undos) - 1
		h.undos[i]()
		h.model[i]()
		h.undos, h.model = h.undos[:i], h.model[:i]
	}
}

// TestCheckpointDigestProperty drives random Put/Delete/undo histories
// with checkpoints in between. After every checkpoint the incremental
// digest equals the reference and SnapshotDigest(Snapshot()); a store
// holding the same map reached by another insertion order, and one
// restored from the snapshot, report the same digest.
func TestCheckpointDigestProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := &history{s: NewStore(), m: map[string][]byte{}}
			keySpace := 200 + rng.Intn(3000)
			key := func() string { return fmt.Sprintf("k%05d", rng.Intn(keySpace)) }
			// Preload through Load, before the index exists.
			for i := 0; i < keySpace/2; i++ {
				k := key()
				v := []byte{byte(i)}
				h.s.Load(k, v)
				h.m[k] = v
			}
			for round := 0; round < 12; round++ {
				for i := rng.Intn(300); i > 0; i-- {
					switch p := rng.Intn(20); {
					case p < 11:
						h.put(key(), []byte(fmt.Sprintf("v%d.%d", round, i)))
					case p < 12:
						k, v := key(), []byte(fmt.Sprintf("l%d.%d", round, i))
						h.s.Load(k, v)
						h.m[k] = v
						h.undos, h.model = nil, nil // Load has no undo
					case p < 18:
						h.del(key())
					default:
						h.rollback(1 + rng.Intn(8))
					}
				}
				if rng.Intn(3) == 0 {
					h.rollback(rng.Intn(20))
				}
				h.undos, h.model = nil, nil // a sync point finalizes
				d := checkStore(t, h.s, h.m)

				// Another insertion order reaching the same map.
				keys := make([]string, 0, len(h.m))
				for k := range h.m {
					keys = append(keys, k)
				}
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
				other := NewStore()
				for i, k := range keys {
					if i == len(keys)/2 {
						other.Checkpoint() // the rest lands incrementally
					}
					other.Execute(EncodePut(k, h.m[k]))
				}
				if od, _ := other.Checkpoint(); od != d {
					t.Fatalf("round %d: same map via another order digests %x, want %x", round, od[:6], d[:6])
				}

				// Restore round trip.
				restored := NewStore()
				if err := restored.Restore(h.s.Snapshot()); err != nil {
					t.Fatal(err)
				}
				if rd := checkStore(t, restored, h.m); rd != d {
					t.Fatalf("round %d: restored store digests %x, want %x", round, rd[:6], d[:6])
				}
			}
		})
	}
}

// TestCheckpointBytesFrozen: the snapshot function a checkpoint returns
// yields that checkpoint's state, whether it is first called before or
// after later writes, rollbacks and a Restore.
func TestCheckpointBytesFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &history{s: NewStore(), m: map[string][]byte{}}
	for i := 0; i < 1500; i++ {
		h.put(fmt.Sprintf("k%05d", i), []byte{byte(i)})
	}
	d, early := h.s.Checkpoint()
	_, late := h.s.Checkpoint()
	want := refSnapshot(h.m)
	first := early()
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("k%05d", rng.Intn(2000))
		if i%3 == 0 {
			h.del(k)
		} else {
			h.put(k, []byte("changed"))
		}
	}
	h.rollback(50)
	h.s.Checkpoint() // re-cuts the chunks the writes touched
	if err := h.s.Restore(refSnapshot(map[string][]byte{"x": nil})); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"early": first, "early again": early(), "late": late()} {
		if !bytes.Equal(b, want) {
			t.Fatalf("%s call: checkpoint bytes changed after later writes", name)
		}
		if got, err := h.s.SnapshotDigest(b); err != nil || got != d {
			t.Fatalf("%s call: bytes digest %x, %v; want %x", name, got[:6], err, d[:6])
		}
	}
}

// boundaryKeys returns n keys with the given boundary status.
func boundaryKeys(prefix string, want bool, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		k := fmt.Sprintf("%s%06d", prefix, i)
		if boundary([]byte(k)) == want {
			out = append(out, k)
		}
	}
	return out
}

// TestChunkSplitAndMerge: inserting a boundary key splits its chunk,
// deleting one merges two chunks (including the final, open chunk), and
// the digest stays exact through each step and its undo.
func TestChunkSplitAndMerge(t *testing.T) {
	h := &history{s: NewStore(), m: map[string][]byte{}}
	for i := 0; i < 2000; i++ {
		h.put(fmt.Sprintf("m%06d", i), []byte("v"))
	}
	checkStore(t, h.s, h.m)
	chunks := func() int { return len(h.s.idx.chunks) }
	base := chunks()

	// "m000100x" sorts inside the existing key range.
	split := boundaryKeys("m000100x", true, 1)[0]
	h.put(split, []byte("split"))
	checkStore(t, h.s, h.m)
	if chunks() != base+1 {
		t.Fatalf("boundary insert: %d chunks, want %d", chunks(), base+1)
	}
	h.rollback(1)
	checkStore(t, h.s, h.m)
	if chunks() != base {
		t.Fatalf("boundary insert undone: %d chunks, want %d", chunks(), base)
	}

	// Delete an existing boundary key in the middle: two chunks merge.
	var mid string
	for _, c := range h.s.idx.chunks[base/2:] {
		if c.closed {
			mid = c.last
			break
		}
	}
	h.del(mid)
	checkStore(t, h.s, h.m)
	if chunks() != base-1 {
		t.Fatalf("boundary delete: %d chunks, want %d", chunks(), base-1)
	}
	// Delete two adjacent chunk ends at once, then restore them.
	ends := []string{h.s.idx.chunks[3].last, h.s.idx.chunks[4].last}
	h.undos, h.model = nil, nil
	h.del(ends[0])
	h.del(ends[1])
	checkStore(t, h.s, h.m)
	if chunks() != base-3 {
		t.Fatalf("adjacent boundary deletes: %d chunks, want %d", chunks(), base-3)
	}
	h.rollback(2)
	checkStore(t, h.s, h.m)

	// Past the end: non-boundary keys extend the final chunk, a boundary
	// key closes it, and deleting the last key of a closed final chunk
	// reopens it.
	for _, k := range boundaryKeys("z", false, 5) {
		h.put(k, []byte("tail"))
		checkStore(t, h.s, h.m)
	}
	closer := boundaryKeys("zz", true, 1)[0]
	h.put(closer, []byte("close"))
	checkStore(t, h.s, h.m)
	if last := h.s.idx.chunks[chunks()-1]; !last.closed || last.last != closer {
		t.Fatal("a boundary key at the end did not close the final chunk")
	}
	h.put(boundaryKeys("zzz", false, 1)[0], []byte("open"))
	checkStore(t, h.s, h.m)
	h.rollback(2)
	checkStore(t, h.s, h.m)

	// Delete everything, then refill from empty.
	for k := range h.m {
		h.del(k)
	}
	checkStore(t, h.s, h.m)
	if chunks() != 0 {
		t.Fatalf("empty store holds %d chunks", chunks())
	}
	h.put("a", []byte("1"))
	checkStore(t, h.s, h.m)
}

// TestRestoreRejectsNonCanonical: Restore and SnapshotDigest accept only
// canonical Snapshot bytes, and a rejected Restore leaves the store as
// it was.
func TestRestoreRejectsNonCanonical(t *testing.T) {
	s := NewStore()
	s.Execute(EncodePut("keep", []byte("me")))
	good := refSnapshot(map[string][]byte{"a": {1}, "b": {2}})
	bad := map[string][]byte{
		"truncated":     good[:len(good)-1],
		"trailing":      append(append([]byte(nil), good...), 0),
		"short count":   {1, 0},
		"count too big": append([]byte{3, 0, 0, 0}, good[4:]...),
		"unsorted":      swapItems(good),
		"duplicate":     dupItem(good),
	}
	for name, b := range bad {
		if _, err := s.SnapshotDigest(b); err == nil {
			t.Errorf("%s: SnapshotDigest accepted it", name)
		}
		if err := s.Restore(b); err == nil {
			t.Errorf("%s: Restore accepted it", name)
		}
	}
	if v, _ := s.tree.Get("keep"); string(v) != "me" || s.Len() != 1 {
		t.Fatal("a rejected Restore changed the store")
	}
}

// swapItems returns two-item Snapshot bytes with the items swapped.
func swapItems(b []byte) []byte {
	const item = 4 + 1 + 4 + 1 // one-byte keys and values
	out := append([]byte(nil), b[:4]...)
	out = append(out, b[4+item:]...)
	return append(out, b[4:4+item]...)
}

// dupItem returns two-item Snapshot bytes whose second item repeats the
// first.
func dupItem(b []byte) []byte {
	const item = 4 + 1 + 4 + 1
	out := append([]byte(nil), b[:4+item]...)
	return append(out, b[4:4+item]...)
}

// FuzzSnapshotDigest: arbitrary bytes never panic SnapshotDigest or
// Restore; bytes either is accepted by both are canonical — restoring
// them reproduces the same bytes and the same digest.
func FuzzSnapshotDigest(f *testing.F) {
	f.Add(refSnapshot(nil))
	f.Add(refSnapshot(map[string][]byte{"a": {1}, "b": {2}}))
	big := map[string][]byte{}
	for i := 0; i < 100; i++ {
		big[fmt.Sprintf("k%03d", i)] = []byte{byte(i)}
	}
	f.Add(refSnapshot(big))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		d, derr := s.SnapshotDigest(data)
		rerr := s.Restore(data)
		if (derr == nil) != (rerr == nil) {
			t.Fatalf("SnapshotDigest err %v but Restore err %v", derr, rerr)
		}
		if derr != nil {
			return
		}
		got, snap := s.Checkpoint()
		if got != d {
			t.Fatalf("restored store digests %x, bytes digest %x", got[:6], d[:6])
		}
		if !bytes.Equal(snap(), data) {
			t.Fatal("accepted bytes are not canonical: re-snapshot differs")
		}
	})
}

// TestCheckpointConcurrentWrites: snapshot functions from earlier
// checkpoints are read while another goroutine keeps writing and
// checkpointing (run under -race); every one still yields its own
// checkpoint's bytes.
func TestCheckpointConcurrentWrites(t *testing.T) {
	s := NewStore()
	for i := 0; i < 1000; i++ {
		s.Load(fmt.Sprintf("k%04d", i), []byte{byte(i)})
	}
	type ckpt struct {
		digest [32]byte
		snap   func() []byte
	}
	ckpts := make(chan ckpt, 16)
	go func() {
		defer close(ckpts)
		rng := rand.New(rand.NewSource(3))
		for round := 0; round < 50; round++ {
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("k%04d", rng.Intn(1200))
				if i%4 == 0 {
					s.Execute(EncodeDelete(k))
				} else {
					s.Execute(EncodePut(k, []byte(fmt.Sprintf("r%d", round))))
				}
			}
			d, snap := s.Checkpoint()
			ckpts <- ckpt{d, snap}
		}
	}()
	for c := range ckpts {
		if got, err := s.SnapshotDigest(c.snap()); err != nil || got != c.digest {
			t.Errorf("snapshot read during later writes digests %x, %v; want %x", got[:6], err, c.digest[:6])
		}
	}
}
