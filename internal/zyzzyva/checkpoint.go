package zyzzyva

import (
	"time"

	"neobft/internal/replication"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// Zyzzyva checkpoints (Kotla et al. §4.4), built on the shared seqlog
// checkpoint engine. Every CheckpointInterval batches each replica
// snapshots its state (application plus client table), broadcasts a
// checkpoint vote over ⟨seq, history, state-digest⟩, and collects 2f+1
// matching votes into a stable certificate. Stability truncates the
// ordered-batch log below the checkpoint, bounding replica memory; the
// history hash travels inside the checkpoint digest so a replica
// installing a snapshot can resume the speculative hash chain from the
// certified point.

// fetchCooldown rate-limits state-fetch requests so a fast primary (or a
// flood of ahead votes) does not trigger one fetch per packet.
const fetchCooldown = 100 * time.Millisecond

// captureCheckpointLocked runs after executing an interval boundary:
// capture the snapshot, vote, and broadcast the checkpoint message.
// Caller holds r.mu.
func (r *Replica) captureCheckpointLocked(seq uint64) {
	state := replication.CaptureSnapshot(r.cfg.App, r.table)
	stateD := state.StateDigest
	p := &pendingCkpt{
		seq:     seq,
		history: r.history,
		state:   state,
		digest:  seqlog.Digest(ckptDomain, seq, r.history, stateD),
	}
	r.pendingCkpt[seq] = p
	r.mCkpt.Inc()

	body := seqlog.Body(ckptDomain, seq, p.digest, uint32(r.cfg.Self))
	tag := r.cfg.Auth.TagVector(body)
	w := wire.NewWriter(160)
	w.U8(kindCheckpoint)
	w.U32(uint32(r.cfg.Self))
	w.U64(seq)
	w.Bytes32(p.history)
	w.Bytes32(stateD)
	w.VarBytes(tag)
	r.broadcast(w.Bytes())
	if cert := r.ckpt.Add(seq, uint32(r.cfg.Self), p.digest, tag); cert != nil {
		r.advanceStableLocked(cert)
	}
}

func (r *Replica) onCheckpoint(e evCheckpoint) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := uint64(r.cfg.CheckpointInterval)
	if e.seq == 0 || e.seq%k != 0 {
		return
	}
	if st := r.ckpt.Stable(); st != nil && e.seq <= st.Slot {
		return
	}
	if e.seq > r.horizonLocked() {
		// Don't pool votes for slots beyond the watermark window: a
		// Byzantine replica could otherwise grow the vote map without
		// bound. Catch-up is driven by the primary's order-reqs landing
		// beyond the horizon (onOrderReq), not by votes.
		r.mHorizonRej.Inc()
		return
	}
	if cert := r.ckpt.Add(e.seq, e.replica, e.digest, e.tag); cert != nil {
		r.advanceStableLocked(cert)
	}
}

// advanceStableLocked reacts to a newly formed stable certificate:
// truncate if the local state matches, or fetch the snapshot if the
// quorum checkpointed a state we never reached. Caller holds r.mu.
func (r *Replica) advanceStableLocked(cert *seqlog.Cert) {
	p := r.pendingCkpt[cert.Slot]
	if p != nil && p.digest == cert.Digest {
		r.stable = &stableCkpt{pendingCkpt: *p, cert: cert}
		dropped := r.log.TruncateTo(cert.Slot)
		r.mTruncated.Add(uint64(dropped))
		for s := range r.pendingCkpt {
			if s <= cert.Slot {
				delete(r.pendingCkpt, s)
			}
		}
		for s := range r.buffered {
			if s <= cert.Slot {
				delete(r.buffered, s)
			}
		}
		r.gLow.Set(int64(r.log.Low()))
		r.gHigh.Set(int64(r.log.High()))
		return
	}
	// 2f+1 replicas checkpointed a state we do not hold.
	r.maybeFetchLocked(int(cert.Parts[0].Replica))
}

// maybeFetchLocked sends a rate-limited state-fetch to rep. Caller holds
// r.mu.
func (r *Replica) maybeFetchLocked(rep int) {
	if rep < 0 || rep >= r.cfg.N || rep == r.cfg.Self {
		return
	}
	if time.Since(r.lastFetch) < fetchCooldown {
		return
	}
	r.lastFetch = time.Now()
	w := wire.NewWriter(16)
	w.U8(kindStateFetch)
	w.U64(r.lastExec)
	r.conn.Send(r.cfg.Members[rep], w.Bytes())
}

func (r *Replica) onStateFetch(from transport.NodeID, haveExec uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stable == nil || r.stable.seq <= haveExec {
		return
	}
	r.mSnapServe.Inc()
	snap := r.stable.state.Bytes()
	w := wire.NewWriter(256 + len(snap))
	w.U8(kindStateSnap)
	w.VarBytes(r.stable.cert.Marshal())
	w.Bytes32(r.stable.history)
	w.VarBytes(snap)
	r.conn.Send(from, w.Bytes())
}

// onStateSnap installs a snapshot state transfer. The certificate's 2f+1
// authenticated votes bind both the state digest and the history
// hash, so the speculative chain resumes from a certified point.
func (r *Replica) onStateSnap(body []byte) {
	rd := wire.NewReader(body)
	certB := rd.VarBytes()
	history := rd.Bytes32()
	snap := append([]byte(nil), rd.VarBytes()...)
	if rd.Done() != nil {
		return
	}
	cert, err := seqlog.UnmarshalCert(certB)
	if err != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cert.Slot <= r.lastExec {
		return
	}
	r.installSnapshotLocked(cert, history, snap)
}

// installSnapshotLocked verifies a checkpoint certificate against its
// history hash and snapshot and, if sound, adopts the checkpointed state
// wholesale. Shared tail of snapshot state transfer (onStateSnap) and
// crash-restart recovery (Config.Restore). Caller holds r.mu.
func (r *Replica) installSnapshotLocked(cert *seqlog.Cert, history [32]byte, snap []byte) bool {
	if !cert.Verify(ckptDomain, r.cfg.N, 2*r.cfg.F+1, func(rep uint32, b, tag []byte) bool {
		return r.cfg.Auth.VerifyVector(int(rep), b, tag)
	}) {
		return false
	}
	state, err := replication.InstallSnapshot(r.cfg.App, r.table, snap, func(stateD [32]byte) bool {
		return cert.Digest == seqlog.Digest(ckptDomain, cert.Slot, history, stateD)
	})
	if err != nil {
		return false
	}
	r.table.Reauth(uint32(r.cfg.Self), func(c transport.NodeID, b []byte) []byte {
		return r.cfg.ClientAuth.TagFor(int64(c), b)
	})
	r.log.Reset(cert.Slot)
	r.lastExec = cert.Slot
	if r.seq < cert.Slot {
		r.seq = cert.Slot
	}
	r.history = history
	r.stable = &stableCkpt{
		pendingCkpt: pendingCkpt{seq: cert.Slot, history: history, state: state, digest: cert.Digest},
		cert:        cert,
	}
	r.ckpt.SetStable(cert)
	for s := range r.pendingCkpt {
		if s <= cert.Slot {
			delete(r.pendingCkpt, s)
		}
	}
	for s := range r.buffered {
		if s <= cert.Slot {
			delete(r.buffered, s)
		}
	}
	r.snapInstalls++
	r.mSnapInst.Inc()
	r.gLow.Set(int64(r.log.Low()))
	r.gHigh.Set(int64(r.log.High()))
	// Buffered order-reqs above the checkpoint may now be executable.
	for {
		next, ok := r.buffered[r.lastExec+1]
		if !ok {
			break
		}
		delete(r.buffered, next.seq)
		r.executeLocked(next)
	}
	return true
}

// Persist captures the replica's durable recovery state: the latest
// stable checkpoint certificate, its history hash, and the snapshot. A
// replica restarted with this blob (Config.Restore) resumes the
// speculative chain from the certified point; nil means no checkpoint
// is stable yet.
func (r *Replica) Persist() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stable == nil {
		return nil
	}
	snap := r.stable.state.Bytes()
	w := wire.NewWriter(256 + len(snap))
	w.VarBytes(r.stable.cert.Marshal())
	w.Bytes32(r.stable.history)
	w.VarBytes(snap)
	return w.Bytes()
}

// restoreFromPersist boots from a Persist blob. Called from New before
// the runtime starts.
func (r *Replica) restoreFromPersist(blob []byte) {
	rd := wire.NewReader(blob)
	certB := rd.VarBytes()
	history := rd.Bytes32()
	snap := append([]byte(nil), rd.VarBytes()...)
	if rd.Done() != nil {
		return
	}
	cert, err := seqlog.UnmarshalCert(certB)
	if err != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.installSnapshotLocked(cert, history, snap)
}
