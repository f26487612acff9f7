package virtualworld

import (
	"testing"

	"cloudfog/internal/rng"
)

// BenchmarkStep measures one authoritative world tick with 200 acting
// avatars — the cloud's per-tick computation cost.
func BenchmarkStep(b *testing.B) {
	r := rng.New(1)
	w := New(1024, 1024)
	for p := 1; p <= 200; p++ {
		w.SpawnAvatar(p, r.Uniform(0, 1024), r.Uniform(0, 1024))
	}
	actions := make([]Action, 0, 200)
	for p := 1; p <= 200; p++ {
		actions = append(actions, Action{
			Player: p, Kind: ActMove,
			TargetX: r.Uniform(0, 1024), TargetY: r.Uniform(0, 1024),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(actions)
	}
}

// BenchmarkReplicaApply measures the supernode-side cost of folding one
// tick's deltas into a replica.
func BenchmarkReplicaApply(b *testing.B) {
	r := rng.New(2)
	w := New(1024, 1024)
	for p := 1; p <= 200; p++ {
		w.SpawnAvatar(p, r.Uniform(0, 1024), r.Uniform(0, 1024))
	}
	var actions []Action
	for p := 1; p <= 200; p++ {
		actions = append(actions, Action{Player: p, Kind: ActMove, TargetX: 500, TargetY: 500})
	}
	deltas := w.Step(actions)
	rep := NewReplica(1024, 1024)
	rep.Seed(w.Snapshot())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Apply(w.Tick(), deltas)
	}
}

// bigWorldSnapshot is a 20k-NPC world laid out as the cloud's NPC seeding
// lays it out (a 4×4 lattice, the rest piled on the top edge) plus two
// avatars: the welcome snapshot a joining fog seeds its replica from.
func bigWorldSnapshot() Snapshot {
	w := New(0, 0)
	for i := 0; i < 20_000; i++ {
		w.SpawnNPC(w.width*float64(i%4+1)/5, w.height*float64(i/4+1)/5)
	}
	w.SpawnAvatar(1, 300, 220)
	w.SpawnAvatar(2, 120, 340)
	return w.Snapshot()
}

// BenchmarkReplicaSeed measures seeding a fog replica (entity map, owner
// index and grid) from a 20k-entity welcome snapshot.
func BenchmarkReplicaSeed(b *testing.B) {
	s := bigWorldSnapshot()
	rep := NewReplica(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.Seed(s)
	}
}
