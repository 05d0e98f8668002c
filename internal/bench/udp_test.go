package bench

import (
	"fmt"
	"testing"
	"time"
)

// udpProtocols is one representative per protocol family — the systems
// that must commit operations over real sockets for the deployment path
// to be credible.
var udpProtocols = []Protocol{Unreplicated, NeoHM, PBFT, Zyzzyva, HotStuff, MinBFT}

// TestUDPLoopbackAllProtocols drives every protocol family through the
// shared bench builder over real loopback UDP sockets: the same Build
// path the simnet experiments use, with Transport switched.
func TestUDPLoopbackAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration test")
	}
	for _, p := range udpProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			sys := Build(Options{Protocol: p, Transport: "udp", ClientTimeout: 300 * time.Millisecond})
			defer sys.Close()
			if sys.Transport != "udp" {
				t.Fatalf("sys.Transport = %q, want udp", sys.Transport)
			}
			cl := sys.NewClient(1)
			const ops = 20
			for i := 0; i < ops; i++ {
				if _, err := cl.Invoke([]byte(fmt.Sprintf("op-%d", i)), 10*time.Second); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			// The client returns on a reply quorum that may exclude any
			// one replica, so wait (bounded) for 2f+1 replicas to execute
			// every op rather than reading one replica once.
			f := (sys.NumReplicas - 1) / 3
			if p == MinBFT {
				f = (sys.NumReplicas - 1) / 2 // MinBFT runs 2f+1 replicas
			}
			quorum := 2*f + 1
			var caughtUp int
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				caughtUp = 0
				for i := 0; i < sys.NumReplicas; i++ {
					if sys.ExecutedAt(i) >= ops {
						caughtUp++
					}
				}
				if caughtUp >= quorum || time.Now().After(deadline) {
					break
				}
			}
			if caughtUp < quorum {
				t.Fatalf("%d replicas executed all %d ops, want %d", caughtUp, ops, quorum)
			}
		})
	}
}

// TestUDPLoopbackKillRestart kills one replica of a 4-replica (f=1)
// PBFT system running over real sockets, verifies the survivors keep
// committing, then restarts it and checks it rejoins and catches up.
func TestUDPLoopbackKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration test")
	}
	// A small checkpoint interval gives the restarted replica frequent
	// state-fetch triggers while load keeps flowing.
	sys := Build(Options{Protocol: PBFT, Transport: "udp", CheckpointInterval: 8,
		ClientTimeout: 300 * time.Millisecond})
	defer sys.Close()
	cl := sys.NewClient(1)
	invoke := func(n int, phase string) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := cl.Invoke([]byte(fmt.Sprintf("%s-%d", phase, i)), 10*time.Second); err != nil {
				t.Fatalf("%s op %d: %v", phase, i, err)
			}
		}
	}
	invoke(10, "warm")

	// Kill a non-primary replica: with f=1 the other three must keep
	// committing over the real sockets.
	const victim = 3
	if err := sys.Crash(victim); err != nil {
		t.Fatalf("crash replica %d: %v", victim, err)
	}
	before := sys.Committed()
	invoke(10, "degraded")
	// The client returns on f+1 matching replies, which may exclude
	// replica 0, so wait (bounded) for it to execute the tenth op.
	for deadline := time.Now().Add(5 * time.Second); sys.Committed() < before+10; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("committed %d after crash, want >= %d (f=1 progress)", sys.Committed(), before+10)
		}
	}

	if err := sys.Restart(victim, false); err != nil {
		t.Fatalf("restart replica %d: %v", victim, err)
	}
	if !sys.Alive(victim) {
		t.Fatalf("replica %d not alive after restart", victim)
	}
	// The restarted replica must catch up to the fleet: it rejoined on a
	// fresh loopback port, so this also proves peers follow the address
	// rebind. Catch-up is checkpoint-driven, so keep load flowing while
	// waiting.
	target := sys.Committed() + 10
	deadline := time.Now().Add(30 * time.Second)
	for sys.ExecutedAt(victim) < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica %d executed %d, fleet at %d — never caught up",
				victim, sys.ExecutedAt(victim), sys.Committed())
		}
		invoke(1, "healed")
		time.Sleep(5 * time.Millisecond)
	}
}
