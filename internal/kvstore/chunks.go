package kvstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"sort"

	"neobft/internal/wire"
)

// Incremental checkpoint digests (replication.Checkpointer).
//
// The Snapshot byte stream — a U32 item count, then VarBytes(key) ‖
// VarBytes(value) per item in key order — is cut into content-defined
// chunks: a chunk ends after every key whose boundary hash (the first 8
// bytes of SHA-256(key), big-endian) is 0 mod chunkSpread, and the last
// chunk ends with the last item. Boundaries depend only on the key set,
// not on B-Tree shape or history, so every replica holding the same map
// cuts the same chunks.
//
//	chunk digest = SHA-256(chunk bytes)
//	app digest   = SHA-256(appDomain ‖ U32 item count ‖ chunk digests…)
//
// The store keeps the chunk list and records the keys every write (and
// every undo) touches. A checkpoint re-serializes, re-cuts and re-hashes
// only the chunks holding a touched key; the rest are reused. Chunk byte
// slices are never modified once published, so a checkpoint hands back
// the chunk list as it stands and the full snapshot is concatenated only
// when somebody asks for the bytes (state transfer, persistence).

// chunkSpread is the mean number of items per chunk.
const chunkSpread = 32

// appDomain separates kv-store app digests from every other SHA-256
// input in the system.
const appDomain = "neobft/kvstore/state/v1"

var errSnapshot = errors.New("kvstore: malformed snapshot")

// chunk is a run of consecutive serialized items. Published chunks are
// immutable.
type chunk struct {
	last   string // the chunk's last key
	closed bool   // last is a boundary key (false only for the final chunk)
	data   []byte
	digest [32]byte
}

// chunkIndex is the store's chunked view of its snapshot stream.
type chunkIndex struct {
	chunks []chunk  // in key order; a published slice is never modified
	digest [32]byte // app digest over chunks
	dirty  map[string]struct{}
	buf    []byte // serialization scratch, reused across checkpoints
}

// boundary reports whether a chunk ends after key.
func boundary(key []byte) bool {
	h := sha256.Sum256(key)
	return binary.BigEndian.Uint64(h[:8])%chunkSpread == 0
}

// newAppHash starts an app digest over count items; the caller writes
// the chunk digests in key order.
func newAppHash(count uint32) hash.Hash {
	h := sha256.New()
	h.Write([]byte(appDomain))
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], count)
	h.Write(c[:])
	return h
}

func sum(h hash.Hash) (d [32]byte) {
	h.Sum(d[:0])
	return d
}

// newChunkIndex cuts the whole tree into chunks.
func newChunkIndex(t *BTree) *chunkIndex {
	ix := &chunkIndex{dirty: map[string]struct{}{}}
	ix.chunks = ix.cut(nil, t, "", false, "", false, func(_ string, key []byte) bool { return boundary(key) })
	ix.digest = ix.appDigest(t)
	return ix
}

func (ix *chunkIndex) appDigest(t *BTree) [32]byte {
	h := newAppHash(uint32(t.Len()))
	for i := range ix.chunks {
		h.Write(ix.chunks[i].digest[:])
	}
	return sum(h)
}

// cut serializes the items in (lo, hi] into chunks appended to out,
// ending one after every key isEnd reports. Without hasLo the range
// starts at the first key; without hasHi it runs to the last.
func (ix *chunkIndex) cut(out []chunk, t *BTree, lo string, hasLo bool, hi string, hasHi bool, isEnd func(k string, key []byte) bool) []chunk {
	buf := ix.buf[:0]
	var last string
	emit := func(closed bool) {
		data := bytes.Clone(buf)
		out = append(out, chunk{last: last, closed: closed, data: data, digest: sha256.Sum256(data)})
		buf = buf[:0]
	}
	t.Scan(lo, "", func(k string, v []byte) bool {
		if hasLo && k == lo {
			return true
		}
		if hasHi && k > hi {
			return false
		}
		// wire.Writer.VarBytes encoding, inlined to find the key bytes.
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		ks := len(buf)
		buf = append(buf, k...)
		closed := isEnd(k, buf[ks:])
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
		last = k
		if closed {
			emit(true)
		}
		return true
	})
	if len(buf) > 0 {
		emit(false)
	}
	ix.buf = buf[:0]
	return out
}

// refresh re-cuts the chunks holding a key touched since the last
// refresh. A touched key marks the chunk whose range covers it; a key
// past an open final chunk also marks that chunk (it extends it); and a
// deleted chunk end marks the next chunk too (the two merge). Each run of
// marked chunks is re-cut from the tree over the run's whole key range.
func (ix *chunkIndex) refresh(t *BTree) {
	if len(ix.dirty) == 0 {
		return
	}
	old := ix.chunks
	n := len(old)
	dirty := make([]string, 0, len(ix.dirty))
	// mark[n] stands for the keys past the last chunk.
	mark := make([]bool, n+1)
	for k := range ix.dirty {
		dirty = append(dirty, k)
		i := sort.Search(n, func(i int) bool { return old[i].last >= k })
		mark[i] = true
		if i == n && n > 0 && !old[n-1].closed {
			mark[n-1] = true
		} else if i < n && old[i].last == k {
			if _, ok := t.Get(k); !ok {
				mark[i+1] = true
			}
		}
	}
	clear(ix.dirty)
	sort.Strings(dirty)
	// isEnd needs a hash only for touched keys: any other key was
	// indexed before, and ends a chunk exactly when it ended one of the
	// run's closed chunks. Runs and the keys in them come in ascending
	// order, so both lists are walked once.
	var ends []chunk
	isEnd := func(k string, key []byte) bool {
		for len(dirty) > 0 && dirty[0] < k {
			dirty = dirty[1:]
		}
		if len(dirty) > 0 && dirty[0] == k {
			return boundary(key)
		}
		for len(ends) > 0 && ends[0].last < k {
			ends = ends[1:]
		}
		return len(ends) > 0 && ends[0].last == k && ends[0].closed
	}
	chunks := make([]chunk, 0, n+8)
	for i := 0; i <= n; i++ {
		if !mark[i] {
			if i < n {
				chunks = append(chunks, old[i])
			}
			continue
		}
		j := i
		for j < n && mark[j+1] {
			j++
		}
		var lo, hi string
		if i > 0 {
			lo = old[i-1].last
		}
		if j < n {
			hi = old[j].last
		}
		ends = old[i:min(j+1, n)]
		chunks = ix.cut(chunks, t, lo, i > 0, hi, j < n, isEnd)
		i = j
	}
	ix.chunks = chunks
	ix.digest = ix.appDigest(t)
}

// encodeChunks concatenates a frozen chunk list into Snapshot bytes.
func encodeChunks(count uint32, chunks []chunk) []byte {
	size := 4
	for _, c := range chunks {
		size += len(c.data)
	}
	out := make([]byte, 4, size)
	binary.LittleEndian.PutUint32(out, count)
	for _, c := range chunks {
		out = append(out, c.data...)
	}
	return out
}

// eachItem walks Snapshot bytes, calling fn with every item and the
// offset just past it. It rejects truncated or trailing bytes and keys
// out of strictly ascending order, so exactly one byte string encodes
// each map.
func eachItem(data []byte, fn func(k, v []byte, end int)) error {
	r := wire.NewReader(data)
	n := r.U32()
	var prev []byte
	for i := uint32(0); i < n; i++ {
		k := r.VarBytes()
		v := r.VarBytes()
		if r.Err() != nil || (i > 0 && bytes.Compare(prev, k) >= 0) {
			return errSnapshot
		}
		prev = k
		fn(k, v, len(data)-r.Remaining())
	}
	if r.Done() != nil {
		return errSnapshot
	}
	return nil
}

// SnapshotDigest implements replication.Checkpointer: the digest
// Checkpoint reports for the state the Snapshot bytes hold, computed
// from the bytes alone with the chunk rule the incremental index
// applies. Malformed bytes (truncated, trailing, keys not strictly
// ascending) are an error.
func (*Store) SnapshotDigest(data []byte) ([32]byte, error) {
	if len(data) < 4 {
		return [32]byte{}, errSnapshot
	}
	h := newAppHash(binary.LittleEndian.Uint32(data))
	start := 4
	endChunk := func(end int) {
		d := sha256.Sum256(data[start:end])
		h.Write(d[:])
		start = end
	}
	err := eachItem(data, func(k, _ []byte, end int) {
		if boundary(k) {
			endChunk(end)
		}
	})
	if err != nil {
		return [32]byte{}, err
	}
	if start < len(data) {
		endChunk(len(data))
	}
	return sum(h), nil
}
