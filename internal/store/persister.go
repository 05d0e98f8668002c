package store

import (
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"time"
)

// Persister is a replica's background checkpoint persister: on every
// tick it captures the replica's Persist() blob and appends it to the
// store as a checkpoint record under group commit. A capture identical
// to the last one made durable is skipped, so the WAL only grows when
// the stable watermark advances.
//
// The loop stops at the first failed append: store write errors are
// sticky, so every later append would fail the same way. Stop reports
// that error.
type Persister struct {
	st      *Store
	capture func() (slot uint64, blob []byte)
	last    [32]byte // hash of the last blob made durable
	durable atomic.Uint64
	err     error // first append failure; read after done closes
	final   bool  // set by Stop before it closes stop
	stop    chan struct{}
	done    chan struct{}
}

// StartPersister starts persisting capture's blobs into st every
// interval. capture returns the protocol watermark and the Persist()
// blob (nil when the replica has no checkpoint yet); it runs on the
// persister's goroutine.
func StartPersister(st *Store, every time.Duration, capture func() (slot uint64, blob []byte)) *Persister {
	p := &Persister{
		st:      st,
		capture: capture,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go p.loop(every)
	return p
}

func (p *Persister) loop(every time.Duration) {
	defer close(p.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			if p.final {
				p.err = p.persist()
			}
			return
		case <-tick.C:
			if p.err = p.persist(); p.err != nil {
				return
			}
		}
	}
}

// persist takes one capture and makes it durable unless it matches the
// last blob persisted.
func (p *Persister) persist() error {
	slot, blob := p.capture()
	if blob == nil {
		return nil
	}
	h := sha256.Sum256(blob)
	if h == p.last {
		return nil
	}
	if err := p.st.AppendCheckpoint(slot, blob); err != nil {
		return fmt.Errorf("store: persist checkpoint at slot %d: %w", slot, err)
	}
	p.last = h
	p.durable.Store(slot)
	return nil
}

// DurableSlot reports the watermark of the last checkpoint the
// persister made durable (0 before the first).
func (p *Persister) DurableSlot() uint64 { return p.durable.Load() }

// Stop halts the persister and waits for it to exit. With final set it
// first takes one last capture, the graceful-shutdown persist; without
// it the persister stops at once, as a killed process would. Stop
// returns the append error that stopped the loop or failed the final
// capture. It must be called once.
func (p *Persister) Stop(final bool) error {
	p.final = final
	close(p.stop)
	<-p.done
	return p.err
}
