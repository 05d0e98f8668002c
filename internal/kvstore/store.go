package kvstore

import (
	"sync"

	"neobft/internal/wire"
)

// Op codes for the replicated KV service.
const (
	OpGet uint8 = iota + 1
	OpPut
	OpDelete
	OpScan
)

// EncodeGet builds a GET operation.
func EncodeGet(key string) []byte {
	w := wire.NewWriter(16 + len(key))
	w.U8(OpGet)
	w.VarBytes([]byte(key))
	return w.Bytes()
}

// EncodePut builds a PUT operation.
func EncodePut(key string, value []byte) []byte {
	w := wire.NewWriter(24 + len(key) + len(value))
	w.U8(OpPut)
	w.VarBytes([]byte(key))
	w.VarBytes(value)
	return w.Bytes()
}

// EncodeDelete builds a DELETE operation.
func EncodeDelete(key string) []byte {
	w := wire.NewWriter(16 + len(key))
	w.U8(OpDelete)
	w.VarBytes([]byte(key))
	return w.Bytes()
}

// EncodeScan builds a SCAN operation over [from, to) returning at most
// limit entries.
func EncodeScan(from, to string, limit uint32) []byte {
	w := wire.NewWriter(32 + len(from) + len(to))
	w.U8(OpScan)
	w.VarBytes([]byte(from))
	w.VarBytes([]byte(to))
	w.U32(limit)
	return w.Bytes()
}

// DecodeGetResult parses a GET result.
func DecodeGetResult(res []byte) (value []byte, found bool) {
	r := wire.NewReader(res)
	found = r.Bool()
	value = r.VarBytes()
	if r.Err() != nil {
		return nil, false
	}
	return value, found
}

// Store is the replicated-state-machine adapter around a BTree. It
// implements replication.App: Execute applies one encoded operation and
// returns an undo closure restoring the previous state of the touched
// key, which NeoBFT uses to roll back speculative execution.
type Store struct {
	mu   sync.Mutex
	tree *BTree
	ops  uint64
	// idx is the chunked snapshot index behind Checkpoint, built at the
	// first checkpoint (so preloading pays nothing for it) and dropped
	// by Restore.
	idx *chunkIndex
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{tree: NewBTree()}
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tree.Len()
}

// Ops returns the number of executed operations.
func (s *Store) Ops() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Load bulk-inserts a record without counting it as an executed op
// (dataset preload for benchmarks).
func (s *Store) Load(key string, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tree.Put(key, value)
	s.touchLocked(key)
}

// touchLocked records a written key for the next checkpoint. Caller
// holds s.mu.
func (s *Store) touchLocked(key string) {
	if s.idx != nil {
		s.idx.dirty[key] = struct{}{}
	}
}

// Execute implements replication.App.
func (s *Store) Execute(op []byte) ([]byte, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	r := wire.NewReader(op)
	switch r.U8() {
	case OpGet:
		key := string(r.VarBytes())
		if r.Err() != nil {
			return errResult("bad get"), nil
		}
		v, found := s.tree.Get(key)
		w := wire.NewWriter(8 + len(v))
		w.Bool(found)
		w.VarBytes(v)
		return w.Bytes(), nil

	case OpPut:
		key := string(r.VarBytes())
		value := append([]byte(nil), r.VarBytes()...)
		if r.Err() != nil {
			return errResult("bad put"), nil
		}
		old, existed := s.tree.Put(key, value)
		s.touchLocked(key)
		w := wire.NewWriter(4)
		w.Bool(existed)
		undo := func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.touchLocked(key)
			if existed {
				s.tree.Put(key, old)
			} else {
				s.tree.Delete(key)
			}
		}
		return w.Bytes(), undo

	case OpDelete:
		key := string(r.VarBytes())
		if r.Err() != nil {
			return errResult("bad delete"), nil
		}
		old, existed := s.tree.Delete(key)
		w := wire.NewWriter(4)
		w.Bool(existed)
		var undo func()
		if existed {
			s.touchLocked(key)
			undo = func() {
				s.mu.Lock()
				defer s.mu.Unlock()
				s.touchLocked(key)
				s.tree.Put(key, old)
			}
		}
		return w.Bytes(), undo

	case OpScan:
		from := string(r.VarBytes())
		to := string(r.VarBytes())
		limit := r.U32()
		if r.Err() != nil {
			return errResult("bad scan"), nil
		}
		w := wire.NewWriter(256)
		var count uint32
		body := wire.NewWriter(256)
		s.tree.Scan(from, to, func(k string, v []byte) bool {
			if count >= limit {
				return false
			}
			body.VarBytes([]byte(k))
			body.VarBytes(v)
			count++
			return true
		})
		w.U32(count)
		w.Raw(body.Bytes())
		return w.Bytes(), nil
	}
	return errResult("unknown op"), nil
}

// Snapshot implements replication.Snapshotter: a deterministic dump of
// every (key, value) pair in key order (a U32 count, then VarBytes key
// and value per pair). Two stores holding the same map produce
// identical bytes.
func (s *Store) Snapshot() []byte {
	_, snap := s.Checkpoint()
	return snap()
}

// Checkpoint implements replication.Checkpointer: the app digest of the
// current state (see chunks.go) and a function returning its Snapshot
// bytes, which stay those of this state however the store changes
// afterwards. Only the chunks written since the last checkpoint are
// re-hashed.
func (s *Store) Checkpoint() ([32]byte, func() []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		s.idx = newChunkIndex(s.tree)
	} else {
		s.idx.refresh(s.tree)
	}
	count, chunks := uint32(s.tree.Len()), s.idx.chunks
	return s.idx.digest, func() []byte { return encodeChunks(count, chunks) }
}

// Restore implements replication.Snapshotter: it replaces the tree with
// the snapshot's contents. It accepts exactly the bytes SnapshotDigest
// accepts.
func (s *Store) Restore(data []byte) error {
	tree := NewBTree()
	err := eachItem(data, func(k, v []byte, _ int) {
		tree.Put(string(k), append([]byte(nil), v...))
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tree = tree
	s.idx = nil
	return nil
}

func errResult(msg string) []byte {
	w := wire.NewWriter(8 + len(msg))
	w.U8(0xff)
	w.VarBytes([]byte(msg))
	return w.Bytes()
}
