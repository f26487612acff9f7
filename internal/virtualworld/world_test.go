package virtualworld

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDefaults(t *testing.T) {
	w := New(0, -5)
	width, height := w.Size()
	if width != DefaultWidth || height != DefaultHeight {
		t.Errorf("size = %v x %v", width, height)
	}
	if w.Tick() != 0 || w.NumEntities() != 0 {
		t.Error("fresh world not empty")
	}
	if w.String() == "" {
		t.Error("empty String")
	}
}

func TestSpawnAvatarIdempotent(t *testing.T) {
	w := New(100, 100)
	a := w.SpawnAvatar(1, 10, 10)
	b := w.SpawnAvatar(1, 90, 90)
	if a != b {
		t.Error("second spawn created a new avatar")
	}
	if w.Avatar(1) != a {
		t.Error("Avatar lookup broken")
	}
	if a.HP != MaxHP || a.Kind != KindAvatar || a.Owner != 1 {
		t.Errorf("avatar malformed: %+v", a)
	}
}

func TestSpawnClampsPosition(t *testing.T) {
	w := New(100, 100)
	a := w.SpawnAvatar(1, -50, 400)
	if a.X != 0 || a.Y != 100 {
		t.Errorf("spawn not clamped: %v, %v", a.X, a.Y)
	}
}

func TestRemovePlayer(t *testing.T) {
	w := New(100, 100)
	a := w.SpawnAvatar(1, 10, 10)
	w.RemovePlayer(1)
	if w.Avatar(1) != nil || w.Entity(a.ID) != nil {
		t.Error("avatar not removed")
	}
	w.RemovePlayer(1) // idempotent
}

func TestMoveStepsTowardTarget(t *testing.T) {
	w := New(1000, 1000)
	a := w.SpawnAvatar(1, 100, 100)
	deltas := w.Step([]Action{{Player: 1, Kind: ActMove, TargetX: 200, TargetY: 100}})
	if len(deltas) != 1 || deltas[0].ID != a.ID {
		t.Fatalf("deltas = %+v", deltas)
	}
	if a.X != 100+MoveSpeed || a.Y != 100 {
		t.Errorf("avatar at %v,%v after one move tick", a.X, a.Y)
	}
	if math.Abs(a.Facing) > 1e-9 {
		t.Errorf("facing = %v", a.Facing)
	}
	// Target closer than MoveSpeed: arrive exactly.
	w.Step([]Action{{Player: 1, Kind: ActMove, TargetX: a.X + 2, TargetY: 100}})
	if a.X != 100+MoveSpeed+2 {
		t.Errorf("short move overshot: %v", a.X)
	}
}

func TestMoveNoOpProducesNoDelta(t *testing.T) {
	w := New(100, 100)
	a := w.SpawnAvatar(1, 50, 50)
	deltas := w.Step([]Action{{Player: 1, Kind: ActMove, TargetX: 50, TargetY: 50}})
	if len(deltas) != 0 {
		t.Errorf("no-op move produced deltas: %+v", deltas)
	}
	if a.Version != 1 {
		t.Errorf("version bumped: %d", a.Version)
	}
}

func TestAttackInRange(t *testing.T) {
	w := New(200, 200)
	w.SpawnAvatar(1, 50, 50)
	victim := w.SpawnAvatar(2, 60, 50)
	deltas := w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: victim.ID}})
	if victim.HP != MaxHP-AttackDamage {
		t.Errorf("victim HP = %d", victim.HP)
	}
	if len(deltas) != 2 {
		t.Errorf("deltas = %d, want attacker+victim", len(deltas))
	}
}

func TestAttackOutOfRange(t *testing.T) {
	w := New(500, 500)
	w.SpawnAvatar(1, 10, 10)
	victim := w.SpawnAvatar(2, 400, 400)
	deltas := w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: victim.ID}})
	if victim.HP != MaxHP || len(deltas) != 0 {
		t.Error("out-of-range attack landed")
	}
}

func TestAttackCannotHitItemsOrSelf(t *testing.T) {
	w := New(200, 200)
	a := w.SpawnAvatar(1, 50, 50)
	item := w.SpawnItem(52, 52)
	if got := w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: item.ID}}); len(got) != 0 {
		t.Error("attacked an item")
	}
	if got := w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: a.ID}}); len(got) != 0 {
		t.Error("attacked self")
	}
}

func TestKilledNPCDespawns(t *testing.T) {
	w := New(200, 200)
	w.SpawnAvatar(1, 50, 50)
	npc := w.SpawnNPC(55, 50)
	hits := int(math.Ceil(float64(MaxHP) / AttackDamage))
	var lastDeltas []Delta
	for i := 0; i < hits; i++ {
		lastDeltas = w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: npc.ID}})
	}
	if w.Entity(npc.ID) != nil {
		t.Fatal("dead NPC still present")
	}
	foundRemoval := false
	for _, d := range lastDeltas {
		if d.Removed && d.ID == npc.ID {
			foundRemoval = true
		}
	}
	if !foundRemoval {
		t.Errorf("no removal delta: %+v", lastDeltas)
	}
}

func TestKilledAvatarRespawns(t *testing.T) {
	w := New(200, 200)
	w.SpawnAvatar(1, 50, 50)
	victim := w.SpawnAvatar(2, 55, 50)
	hits := int(math.Ceil(float64(MaxHP) / AttackDamage))
	for i := 0; i < hits; i++ {
		w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: victim.ID}})
	}
	if victim.HP != MaxHP {
		t.Errorf("avatar not respawned: HP=%d", victim.HP)
	}
	if victim.X != 8 || victim.Y != 8 {
		t.Errorf("respawn position %v,%v", victim.X, victim.Y)
	}
}

func TestPickUp(t *testing.T) {
	w := New(200, 200)
	w.SpawnAvatar(1, 50, 50)
	item := w.SpawnItem(55, 50)
	far := w.SpawnItem(150, 150)
	deltas := w.Step([]Action{{Player: 1, Kind: ActPickUp, TargetEntity: item.ID}})
	if w.Entity(item.ID) != nil {
		t.Error("item not collected")
	}
	foundRemoval := false
	for _, d := range deltas {
		if d.Removed && d.ID == item.ID {
			foundRemoval = true
		}
	}
	if !foundRemoval {
		t.Error("no item removal delta")
	}
	if got := w.Step([]Action{{Player: 1, Kind: ActPickUp, TargetEntity: far.ID}}); len(got) != 0 {
		t.Error("picked up a distant item")
	}
}

func TestEmote(t *testing.T) {
	w := New(100, 100)
	a := w.SpawnAvatar(1, 50, 50)
	w.Step([]Action{{Player: 1, Kind: ActEmote, StateTag: 7}})
	if a.State != 7 {
		t.Errorf("state = %d", a.State)
	}
}

func TestDeadOrMissingActorIgnored(t *testing.T) {
	w := New(100, 100)
	if got := w.Step([]Action{{Player: 99, Kind: ActMove, TargetX: 1, TargetY: 1}}); len(got) != 0 {
		t.Error("ghost player acted")
	}
}

func TestStepDeterministicOrder(t *testing.T) {
	// Two attack actions submitted in different orders must resolve
	// identically (sorted by player ID).
	build := func() (*World, *Entity) {
		w := New(200, 200)
		w.SpawnAvatar(1, 50, 50)
		w.SpawnAvatar(2, 55, 50)
		npc := w.SpawnNPC(52, 52)
		return w, npc
	}
	w1, npc1 := build()
	w1.Step([]Action{
		{Player: 2, Kind: ActAttack, TargetEntity: npc1.ID},
		{Player: 1, Kind: ActAttack, TargetEntity: npc1.ID},
	})
	w2, npc2 := build()
	w2.Step([]Action{
		{Player: 1, Kind: ActAttack, TargetEntity: npc2.ID},
		{Player: 2, Kind: ActAttack, TargetEntity: npc2.ID},
	})
	if npc1.HP != npc2.HP {
		t.Errorf("order-dependent outcome: %d vs %d", npc1.HP, npc2.HP)
	}
	if !w1.Snapshot().Equal(w2.Snapshot()) {
		t.Error("snapshots diverge under reordered input")
	}
}

func TestVersionsMonotoneProperty(t *testing.T) {
	// Property: entity versions never decrease across ticks.
	f := func(moves []uint8) bool {
		w := New(300, 300)
		a := w.SpawnAvatar(1, 150, 150)
		lastVersion := a.Version
		for _, m := range moves {
			w.Step([]Action{{
				Player: 1, Kind: ActMove,
				TargetX: float64(m), TargetY: float64(255 - m),
			}})
			if a.Version < lastVersion {
				return false
			}
			lastVersion = a.Version
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPositionsStayInWorldProperty(t *testing.T) {
	f := func(targets []int16) bool {
		w := New(200, 200)
		a := w.SpawnAvatar(1, 100, 100)
		for _, tgt := range targets {
			w.Step([]Action{{
				Player: 1, Kind: ActMove,
				TargetX: float64(tgt), TargetY: float64(-tgt),
			}})
			if a.X < 0 || a.X > 200 || a.Y < 0 || a.Y > 200 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	w := New(100, 100)
	w.SpawnAvatar(1, 10, 10)
	s := w.Snapshot()
	w.Step([]Action{{Player: 1, Kind: ActMove, TargetX: 90, TargetY: 90}})
	if s.Entities[0].X != 10 {
		t.Error("snapshot mutated by later ticks")
	}
	if s.Tick != 0 || w.Tick() != 1 {
		t.Error("tick bookkeeping wrong")
	}
}

func TestEntitiesSorted(t *testing.T) {
	w := New(100, 100)
	w.SpawnNPC(1, 1)
	w.SpawnAvatar(1, 2, 2)
	w.SpawnItem(3, 3)
	w.SetEntity(Entity{ID: 10, Kind: KindNPC, Owner: -1, X: 4, Y: 4, HP: MaxHP, Version: 1})
	w.SetEntity(Entity{ID: 7, Kind: KindItem, Owner: -1, X: 5, Y: 5, Version: 1})
	es := w.Snapshot().Entities
	if len(es) != 5 {
		t.Fatalf("snapshot has %d entities, want 5", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].ID <= es[i-1].ID {
			t.Fatal("snapshot entities not sorted")
		}
	}
}
