package bench

import (
	"fmt"
	"testing"
	"time"
)

// TestCrashRestartAllProtocols crashes one replica of every system and
// warm-restarts it from its persisted checkpoint. The victim is the
// highest-indexed replica, which never leads the first view; for
// Zyzzyva-F that is the silent replica, and for Unreplicated it is the
// only server.
//
// Every restarted replica must boot from its checkpoint. Where the
// protocol can bring a restarted replica back into a running fleet, new
// operations must commit and the replica must catch up. Two cannot:
// HotStuff has no timeout pacemaker and no block-tree transfer, so the
// fleet stalls at the first view the restarted replica leads; MinBFT's
// prepare is not a commit vote, so both backups must commit, and the
// restarted backup rewinds to its stable checkpoint and drops the
// primary's later prepares as out of sequence.
func TestCrashRestartAllProtocols(t *testing.T) {
	type checkpointed interface {
		Persist() []byte
		LowWatermark() uint64
	}
	cannotRejoin := map[Protocol]bool{HotStuff: true, MinBFT: true}
	for _, p := range AllProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			sys := Build(Options{Protocol: p, CheckpointInterval: 8, ClientTimeout: 200 * time.Millisecond})
			defer sys.Close()
			victim := sys.NumReplicas - 1
			silent := p == ZyzzyvaF
			cl := sys.NewClient(1)
			invoke := func(n int, phase string) {
				t.Helper()
				for i := 0; i < n; i++ {
					if _, err := cl.Invoke([]byte(fmt.Sprintf("%s-%d", phase, i)), 10*time.Second); err != nil {
						t.Fatalf("%s op %d: %v", phase, i, err)
					}
				}
			}
			invoke(20, "warm")
			// Checkpoints stabilize asynchronously: crash only once the
			// victim has one to restart from.
			handle := sys.Replicas[victim].(checkpointed)
			for deadline := time.Now().Add(10 * time.Second); !silent && handle.Persist() == nil; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("replica %d has no stable checkpoint after the warm-up", victim)
				}
			}

			if err := sys.Crash(victim); err != nil {
				t.Fatalf("crash replica %d: %v", victim, err)
			}
			if sys.Alive(victim) {
				t.Fatalf("replica %d alive after crash", victim)
			}
			if err := sys.Restart(victim, false); err != nil {
				t.Fatalf("restart replica %d: %v", victim, err)
			}
			if !sys.Alive(victim) {
				t.Fatalf("replica %d not alive after restart", victim)
			}
			handle = sys.Replicas[victim].(checkpointed)
			if !silent && handle.LowWatermark() == 0 {
				t.Fatalf("replica %d restarted warm but did not restore its checkpoint", victim)
			}
			if cannotRejoin[p] {
				return
			}
			// Forty ops span several checkpoint intervals: enough for a
			// restarted replica to fetch state and execute, unless it is
			// still the silent one.
			invoke(40, "healed")
			if silent {
				if got := sys.ExecutedAt(victim); got != 0 {
					t.Fatalf("silent replica %d executed %d ops after restart", victim, got)
				}
				return
			}
			// Catch-up is checkpoint-driven for the quorum protocols, so
			// keep load flowing while waiting.
			var target uint64
			for i := 0; i < sys.NumReplicas; i++ {
				target = max(target, sys.ExecutedAt(i))
			}
			deadline := time.Now().Add(15 * time.Second)
			for sys.ExecutedAt(victim) < target {
				if time.Now().After(deadline) {
					t.Fatalf("replica %d executed %d, fleet at %d: never caught up",
						victim, sys.ExecutedAt(victim), target)
				}
				invoke(1, "catchup")
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
