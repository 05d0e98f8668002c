package minbft

import (
	"time"

	"neobft/internal/replication"
	"neobft/internal/seqlog"
	"neobft/internal/transport"
	"neobft/internal/wire"
)

// MinBFT checkpoints, built on the shared seqlog checkpoint engine.
// Because the USIG rules out equivocation, f+1 matching votes over the
// state digest suffice for stability (at least one is honest, and no
// replica can have voted for two different states at the same counter).
// Stability truncates the slot window below the checkpoint; a replica
// that falls behind the group's window fetches the stable snapshot
// instead of replaying slots that no longer exist — a recovery path
// plain MinBFT lacks, since a single missed prepare otherwise wedges the
// sequential-counter check forever.

// fetchCooldown rate-limits state-fetch requests.
const fetchCooldown = 100 * time.Millisecond

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
		// Don't pool far-future votes (the Byzantine memory vector);
		// record the claim per replica and fetch state once f+1 distinct
		// replicas — at least one honest — are provably ahead.
		r.mHorizonRej.Inc()
		if e.seq > r.aheadClaims[e.replica] {
			r.aheadClaims[e.replica] = e.seq
		}
		r.maybeFetchAheadLocked()
		return
	}
	if cert := r.ckpt.Add(e.seq, e.replica, e.digest, e.tag); cert != nil {
		r.advanceStableLocked(cert)
	}
}

// maybeFetchAheadLocked requests a snapshot from the furthest-ahead
// claimant once f+1 distinct replicas claim checkpoints beyond our
// window. Caller holds r.mu.
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
	if time.Since(r.lastFetch) < fetchCooldown {
		return
	}
	r.lastFetch = time.Now()
	r.sendStateFetchLocked(int(bestRep))
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
		r.gLow.Set(int64(r.log.Low()))
		r.gHigh.Set(int64(r.log.High()))
		r.tryIssueLocked()
		return
	}
	// f+1 replicas checkpointed a state we do not hold.
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

// onStateSnap installs a snapshot state transfer. The certificate's f+1
// authenticated votes bind the state digest, so the snapshot needs no
// further trust in the sender.
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
		return
	}
	r.installSnapshotLocked(cert, snap)
}

// installSnapshotLocked verifies a checkpoint certificate against its
// snapshot and, if sound, adopts the checkpointed state wholesale. It is
// the shared tail of snapshot state transfer (onStateSnap) and
// crash-restart recovery (Config.Restore). Caller holds r.mu.
func (r *Replica) installSnapshotLocked(cert *seqlog.Cert, snap []byte) bool {
	if !cert.Verify(ckptDomain, r.cfg.N, r.cfg.F+1, func(rep uint32, b, tag []byte) bool {
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
	r.table.Reauth(uint32(r.cfg.Self), func(c transport.NodeID, b []byte) []byte {
		return r.cfg.ClientAuth.TagFor(int64(c), b)
	})
	r.log.Reset(cert.Slot)
	r.lastExec = cert.Slot
	// The primary's USIG counter equals the slot number: resuming the
	// sequential-prepare check from the checkpoint lets the next prepare
	// (cert.Slot+1) through.
	prim := uint32(r.primary())
	if r.lastSeen[prim] < cert.Slot {
		r.lastSeen[prim] = cert.Slot
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
	r.snapInstalls++
	r.mSnapInst.Inc()
	r.gLow.Set(int64(r.log.Low()))
	r.gHigh.Set(int64(r.log.High()))
	r.tryIssueLocked()
	return true
}

// Persist captures the replica's durable recovery state: the latest
// stable checkpoint certificate and snapshot. A replica restarted with
// this blob (Config.Restore) resumes from the checkpoint. Nil means no
// checkpoint is stable yet and a restart recovers entirely from peers.
// The USIG state is deliberately not part of the blob: it models the
// trusted counter surviving in the enclave, so the harness hands the
// same USIG instance back to the restarted replica.
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
// the runtime starts.
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
