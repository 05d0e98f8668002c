package pbft

import (
	"time"

	"neobft/internal/replication"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// PBFT checkpoints (Castro & Liskov §4.3), built on the shared seqlog
// checkpoint engine. After executing a sequence number that is a
// multiple of the checkpoint interval, each replica captures a snapshot
// of its state (application plus client table), broadcasts
// ⟨CHECKPOINT, n, d, i⟩_σi over the state digest, and collects 2f+1
// matching votes into a stable checkpoint certificate. Stability moves
// the low watermark: slots at or below it are truncated, and the
// certificate replaces their prepared-proofs in view changes. A replica
// that falls behind the group's watermark window catches up by fetching
// the stable snapshot from a checkpointing peer instead of replaying
// slots that no longer exist.

// captureCheckpointLocked runs after executing an interval boundary:
// capture the snapshot, vote, and broadcast the checkpoint message.
// Caller holds r.mu.
func (r *Replica) captureCheckpointLocked(seq uint64) {
	state := replication.CaptureSnapshot(r.cfg.App, r.table)
	stateD := state.StateDigest
	p := &pendingCkpt{
		seq:    seq,
		state:  state,
		digest: seqlog.Digest(ckptDomain, seq, stateD),
	}
	r.pendingCkpt[seq] = p
	r.mCkpt.Inc()

	body := seqlog.Body(ckptDomain, seq, p.digest, uint32(r.cfg.Self))
	tag := r.cfg.Auth.TagVector(body)
	w := wire.NewWriter(128)
	w.U8(kindCheckpoint)
	w.U32(uint32(r.cfg.Self))
	w.U64(seq)
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
		// The voter has executed beyond our watermark window. Don't pool
		// the vote (that is the Byzantine memory vector); record the claim
		// per replica and fetch state once f+1 distinct replicas — at
		// least one of them honest — are provably ahead.
		r.mHorizonRej.Inc()
		if e.seq > r.aheadClaims[e.replica] {
			r.aheadClaims[e.replica] = e.seq
		}
		r.maybeFetchAheadLocked()
		return
	}
	digest := seqlog.Digest(ckptDomain, e.seq, e.stateD)
	if cert := r.ckpt.Add(e.seq, e.replica, digest, e.tag); cert != nil {
		r.advanceStableLocked(cert)
	}
}

// maybeFetchAheadLocked requests a snapshot from the furthest-ahead
// claimant once f+1 distinct replicas claim checkpoints beyond our
// window. Rate-limited so repeated votes don't flood the peer. Caller
// holds r.mu.
func (r *Replica) maybeFetchAheadLocked() {
	h := r.horizonLocked()
	ahead := 0
	var bestRep uint32
	var bestSeq uint64
	for rep, s := range r.aheadClaims {
		if s <= h {
			delete(r.aheadClaims, rep)
			continue
		}
		ahead++
		if s > bestSeq {
			bestSeq, bestRep = s, rep
		}
	}
	if ahead < r.cfg.F+1 {
		return
	}
	if time.Since(r.lastFetch) < r.cfg.RequestTimeout {
		return
	}
	r.lastFetch = time.Now()
	r.sendStateFetchLocked(int(bestRep))
}

// advanceStableLocked reacts to a newly formed stable checkpoint
// certificate: truncate if the local state matches, or fetch state if
// the quorum checkpointed something we have not executed. Caller holds
// r.mu.
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
		r.gLow.Set(int64(r.log.Low()))
		r.gHigh.Set(int64(r.log.High()))
		// The watermark window moved: the primary may resume issuing.
		r.tryIssueLocked()
		return
	}
	// 2f+1 replicas checkpointed a state we do not hold: fetch it from
	// one of the voters.
	r.sendStateFetchLocked(int(cert.Parts[0].Replica))
}

// sendStateFetchLocked asks a replica for its stable snapshot. Caller
// holds r.mu.
func (r *Replica) sendStateFetchLocked(rep int) {
	if rep < 0 || rep >= r.cfg.N || rep == r.cfg.Self {
		return
	}
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
	w.VarBytes(snap)
	r.conn.Send(from, w.Bytes())
}

// onStateSnap installs a snapshot state transfer. The certificate's
// 2f+1 authenticated votes bind the state digest, so the snapshot
// needs no further trust in the sender.
func (r *Replica) onStateSnap(body []byte) {
	rd := wire.NewReader(body)
	certB := rd.VarBytes()
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
		return // nothing a snapshot would teach us
	}
	r.installSnapshotLocked(cert, snap)
}

// installSnapshotLocked verifies a checkpoint certificate against its
// snapshot and, if sound, adopts the checkpointed state wholesale. It is
// the shared tail of snapshot state transfer (onStateSnap) and
// crash-restart recovery (Config.Restore). Caller holds r.mu.
func (r *Replica) installSnapshotLocked(cert *seqlog.Cert, snap []byte) bool {
	if !cert.Verify(ckptDomain, r.cfg.N, 2*r.cfg.F+1, func(rep uint32, b, tag []byte) bool {
		return r.cfg.Auth.VerifyVector(int(rep), b, tag)
	}) {
		return false
	}
	state, err := replication.InstallSnapshot(r.cfg.App, r.table, snap, func(stateD [32]byte) bool {
		return cert.Digest == seqlog.Digest(ckptDomain, cert.Slot, stateD)
	})
	if err != nil {
		return false
	}
	// Cached replies in the snapshot are canonicalized; re-stamp them as
	// this replica's.
	r.table.Reauth(uint32(r.cfg.Self), func(c transport.NodeID, b []byte) []byte {
		return r.cfg.ClientAuth.TagFor(int64(c), b)
	})
	// Adopt the checkpointed state wholesale: the window restarts at the
	// certificate's slot.
	r.log.Reset(cert.Slot)
	r.lastExec = cert.Slot
	if r.seq < cert.Slot {
		r.seq = cert.Slot
	}
	r.stable = &stableCkpt{
		pendingCkpt: pendingCkpt{seq: cert.Slot, state: state, digest: cert.Digest},
		cert:        cert,
	}
	r.ckpt.SetStable(cert)
	for s := range r.pendingCkpt {
		if s <= cert.Slot {
			delete(r.pendingCkpt, s)
		}
	}
	for rep, s := range r.aheadClaims {
		if s <= r.horizonLocked() {
			delete(r.aheadClaims, rep)
		}
	}
	// Requests pending suspicion timers may have been executed inside the
	// snapshot; retransmissions are answered from the restored table.
	r.pendingClientReqs = map[string]time.Time{}
	r.snapInstalls++
	r.mSnapInst.Inc()
	r.gLow.Set(int64(r.log.Low()))
	r.gHigh.Set(int64(r.log.High()))
	r.tryIssueLocked()
	return true
}

// Persist captures the replica's durable recovery state: the latest
// stable checkpoint certificate and snapshot. A replica restarted with
// this blob (Config.Restore) resumes from the checkpoint and catches up
// through normal state transfer; nil means no checkpoint is stable yet
// and a restart must recover entirely from peers.
func (r *Replica) Persist() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stable == nil {
		return nil
	}
	snap := r.stable.state.Bytes()
	w := wire.NewWriter(256 + len(snap))
	w.VarBytes(r.stable.cert.Marshal())
	w.VarBytes(snap)
	return w.Bytes()
}

// restoreFromPersist boots from a Persist blob. Called from New before
// the runtime starts, so no locking races are possible; it still takes
// r.mu because installSnapshotLocked expects it.
func (r *Replica) restoreFromPersist(blob []byte) {
	rd := wire.NewReader(blob)
	certB := rd.VarBytes()
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
	r.installSnapshotLocked(cert, snap)
}
