package virtualworld

import (
	"testing"

	"cloudfog/internal/rng"
)

// BenchmarkStep measures one authoritative world tick with 200 acting
// avatars — the cloud's per-tick computation cost. Each avatar steps
// toward one of two targets on alternate ticks, so it never arrives and
// every tick moves all 200.
func BenchmarkStep(b *testing.B) {
	r := rng.New(1)
	w := New(1024, 1024)
	for p := 1; p <= 200; p++ {
		w.SpawnAvatar(p, r.Uniform(0, 1024), r.Uniform(0, 1024))
	}
	var actions [2][]Action
	for p := 1; p <= 200; p++ {
		tx, ty := r.Uniform(0, 1024), r.Uniform(0, 1024)
		actions[0] = append(actions[0], Action{Player: p, Kind: ActMove, TargetX: tx, TargetY: ty})
		actions[1] = append(actions[1], Action{Player: p, Kind: ActMove, TargetX: 1024 - tx, TargetY: 1024 - ty})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(actions[i%2])
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

// bigWorld is a 20k-NPC world laid out as the cloud's NPC seeding lays it
// out (a 4×4 lattice, the rest piled on the top edge) plus two avatars.
func bigWorld() *World {
	w := New(0, 0)
	for i := 0; i < 20_000; i++ {
		w.SpawnNPC(w.width*float64(i%4+1)/5, w.height*float64(i/4+1)/5)
	}
	w.SpawnAvatar(1, 300, 220)
	w.SpawnAvatar(2, 120, 340)
	return w
}

// bigWorldSnapshot is bigWorld's snapshot: the welcome snapshot a joining
// fog seeds its replica from.
func bigWorldSnapshot() Snapshot { return bigWorld().Snapshot() }

// BenchmarkStepBigWorld measures the cloud's tick in the 20k-NPC world
// with both avatars moving every tick: its cost should follow the two
// changed entities, not the world size.
func BenchmarkStepBigWorld(b *testing.B) {
	w := bigWorld()
	next := moveBackAndForth()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step(next())
	}
}

// BenchmarkWorldSnapshot measures the full-world snapshot of a fog
// welcome or resume at 20k entities.
func BenchmarkWorldSnapshot(b *testing.B) {
	w := bigWorld()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Snapshot()
	}
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
