package kvstore_test

import (
	"testing"

	"neobft/internal/kvstore"
	"neobft/internal/ycsb"
)

// BenchmarkKVCheckpoint measures one sync-point checkpoint of the
// paper's YCSB store (§6.5): 100K preloaded 128-byte records, 256
// YCSB-A operations (untimed), then the timed Checkpoint, which re-hashes
// only the chunks those operations wrote. It is a bench-gate row.
func BenchmarkKVCheckpoint(b *testing.B) {
	w := ycsb.WorkloadA()
	s := kvstore.NewStore()
	ycsb.Load(s, w)
	s.Checkpoint() // the one-time full index build
	g := ycsb.NewGenerator(w, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for op := 0; op < 256; op++ {
			s.Execute(g.Next())
		}
		b.StartTimer()
		s.Checkpoint()
	}
}
