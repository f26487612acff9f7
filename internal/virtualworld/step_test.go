package virtualworld

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// referenceStep is Step as it stood before the changed-set rewrite, kept
// as the parity oracle: two per-tick maps, a stable sort of a copy of the
// actions, a respawn scan over the sorted owner index, and a sorted copy
// of the whole world to pick the changed entities out of. The one
// departure from the original text is that deletions go through drop, so
// the world's ID order stays current for the snapshots compared after it.
func referenceStep(w *World, actions []Action) []Delta {
	w.tick++
	changed := make(map[EntityID]bool)
	removed := make(map[EntityID]bool)

	sorted := append([]Action(nil), actions...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Player < sorted[j].Player })

	for _, a := range sorted {
		actor := w.Avatar(a.Player)
		if actor == nil || actor.HP <= 0 {
			continue
		}
		switch a.Kind {
		case ActMove:
			if w.applyMove(actor, a.TargetX, a.TargetY) {
				changed[actor.ID] = true
			}
		case ActAttack:
			if victim := w.applyAttack(actor, a.TargetEntity); victim != nil {
				changed[actor.ID] = true
				changed[victim.ID] = true
				if victim.HP <= 0 && victim.Kind == KindNPC {
					w.drop(victim)
					removed[victim.ID] = true
				}
			}
		case ActPickUp:
			if item := w.applyPickUp(actor, a.TargetEntity); item != nil {
				changed[actor.ID] = true
				removed[item.ID] = true
			}
		case ActEmote:
			actor.State = a.StateTag
			actor.Version++
			changed[actor.ID] = true
		}
	}

	owned := make([]EntityID, 0, len(w.byOwner))
	for _, id := range w.byOwner {
		owned = append(owned, id)
	}
	sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	for _, id := range owned {
		e := w.entities[id]
		if e != nil && e.Kind == KindAvatar && e.HP <= 0 {
			ox, oy := e.X, e.Y
			e.HP = MaxHP
			e.X, e.Y = w.clampPos(8, 8)
			e.Version++
			w.grid.Move(e.ID, ox, oy, e.X, e.Y)
			changed[e.ID] = true
		}
	}

	deltas := make([]Delta, 0, len(changed)+len(removed))
	for _, e := range referenceEntities(w) {
		if changed[e.ID] && !removed[e.ID] {
			deltas = append(deltas, Delta{ID: e.ID, Entity: *e})
		}
	}
	rm := make([]EntityID, 0, len(removed))
	for id := range removed {
		rm = append(rm, id)
	}
	sort.Slice(rm, func(i, j int) bool { return rm[i] < rm[j] })
	for _, id := range rm {
		deltas = append(deltas, Delta{ID: id, Removed: true})
	}
	return deltas
}

// referenceEntities is the sorted whole-world copy the ID order replaces:
// every entity pointer out of the map, sorted by ID.
func referenceEntities(w *World) []*Entity {
	out := make([]*Entity, 0, len(w.entities))
	for _, e := range w.entities {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// checkIndexes fails unless the world's ID order equals its sorted map
// keys and its grid holds exactly its entities.
func checkIndexes(t *testing.T, label string, w *World) {
	t.Helper()
	keys := make([]EntityID, 0, len(w.entities))
	for id := range w.entities {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	if !slices.Equal(w.order, keys) {
		t.Fatalf("%s: ID order %v, map keys %v", label, w.order, keys)
	}
	if w.grid.Len() != len(w.entities) {
		t.Fatalf("%s: grid holds %d entities, map %d", label, w.grid.Len(), len(w.entities))
	}
	snap := w.Snapshot()
	ref := referenceEntities(w)
	if len(snap.Entities) != len(ref) {
		t.Fatalf("%s: snapshot has %d entities, world %d", label, len(snap.Entities), len(ref))
	}
	for i, e := range ref {
		if snap.Entities[i] != *e {
			t.Fatalf("%s: snapshot entity %d = %+v, want %+v", label, i, snap.Entities[i], *e)
		}
	}
}

// byteSource turns fuzz input into small choices; exhausted, it yields 0.
type byteSource struct{ b []byte }

func (s *byteSource) intn(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	s.b = s.b[1:]
	return v % n
}

// parityCoverage counts the cases a parity run reached, so the seeded
// property test can show its inputs exercise every Step path.
type parityCoverage struct {
	npcKills, avatarRespawns, pickups, contestedPickups int
	multiRemovals, deadActs, unknownActs, multiActs     int
	outOfOrder                                          int
}

// runStepParity drives two identical worlds through the operations data
// encodes — ticks of random actions, spawns, logouts, removals, SetEntity
// overwrites and re-adds (out of ID order, dead avatars, owner and kind
// changes) and SetNextID — stepping one with Step and the other with
// referenceStep. After every operation the deltas, snapshots, owner
// indexes, ID allocators and grids must be equal, and each world's ID
// order must equal its sorted map keys.
func runStepParity(t *testing.T, data []byte, cov *parityCoverage) {
	const size = 96.0
	src := &byteSource{b: data}
	got, want := New(size, size), New(size, size)
	both := func(f func(w *World)) { f(got); f(want) }
	pos := func() float64 { return float64(src.intn(13)) * 8 }
	// target picks an action's victim or item: half the time any ID (most
	// out of range or unknown), half the time an entity in the player's
	// attack range (never empty: it holds the avatar itself), so kills and
	// pickups are common.
	target := func(player int) EntityID {
		if a := got.Avatar(player); a != nil && src.intn(2) == 0 {
			var near []EntityID
			for _, id := range got.order {
				if e := got.entities[id]; math.Hypot(e.X-a.X, e.Y-a.Y) <= AttackRange {
					near = append(near, id)
				}
			}
			return near[src.intn(len(near))]
		}
		return EntityID(src.intn(int(got.NextID()) + 1))
	}
	for p := 1; p <= 4; p++ {
		x, y := pos(), pos()
		both(func(w *World) { w.SpawnAvatar(p, x, y) })
	}
	for i := 0; i < 12; i++ {
		x, y := pos(), pos()
		both(func(w *World) { w.SpawnNPC(x, y); w.SpawnItem(x+4, y) })
	}
	seen := make(map[EntityID]Entity)
	for op := 0; len(src.b) > 0 && op < 300; op++ {
		label := fmt.Sprintf("op %d", op)
		switch src.intn(8) {
		case 0, 1, 2, 3:
			acts := make([]Action, src.intn(25))
			for i := range acts {
				if i > 0 && src.intn(4) == 0 {
					// Another player repeats the previous action: two
					// pickups of one item, two strikes on one victim.
					acts[i] = acts[i-1]
					acts[i].Player = src.intn(7)
					continue
				}
				p := src.intn(7)
				acts[i] = Action{
					Player:       p,
					Kind:         ActionKind(src.intn(5)),
					TargetX:      pos(),
					TargetY:      pos(),
					TargetEntity: target(p),
					StateTag:     uint8(src.intn(4)),
				}
			}
			before := want.Snapshot()
			dg, dw := got.Step(acts), referenceStep(want, acts)
			if !reflect.DeepEqual(dg, dw) {
				t.Fatalf("op %d: Step deltas\n%+v\nreference\n%+v", op, dg, dw)
			}
			if cov != nil {
				cov.count(before, acts, dw)
			}
		case 4:
			x, y, p := pos(), pos(), src.intn(7)
			switch src.intn(3) {
			case 0:
				both(func(w *World) { w.SpawnAvatar(p, x, y) })
			case 1:
				both(func(w *World) { w.SpawnNPC(x, y) })
			default:
				both(func(w *World) { w.SpawnItem(x, y) })
			}
		case 5:
			if src.intn(2) == 0 {
				p := src.intn(7)
				both(func(w *World) { w.RemovePlayer(p) })
			} else {
				id := EntityID(src.intn(int(got.NextID()) + 1))
				both(func(w *World) { w.RemoveEntity(id) })
			}
		case 6:
			if len(seen) == 0 {
				continue
			}
			ids := make([]EntityID, 0, len(seen))
			for id := range seen {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			e := seen[ids[src.intn(len(ids))]]
			e.X, e.Y = pos(), pos()
			e.HP = int16(src.intn(6))*20 - 20
			e.Version++
			switch src.intn(8) {
			case 0:
				e.Owner = src.intn(7)
			case 1:
				e.Kind = EntityKind(1 + src.intn(3))
			}
			both(func(w *World) { w.SetEntity(e) })
		case 7:
			id := EntityID(src.intn(int(got.NextID()) + 3))
			both(func(w *World) { w.SetNextID(id) })
		}
		sg, sw := got.Snapshot(), want.Snapshot()
		if !reflect.DeepEqual(sg, sw) {
			t.Fatalf("op %d: snapshots diverge\n%+v\nreference\n%+v", op, sg, sw)
		}
		if !reflect.DeepEqual(got.byOwner, want.byOwner) || got.NextID() != want.NextID() {
			t.Fatalf("op %d: owner index %v next %d, reference %v next %d", op, got.byOwner, got.NextID(), want.byOwner, want.NextID())
		}
		if got.grid.Digest() != want.grid.Digest() {
			t.Fatalf("op %d: grids diverge", op)
		}
		checkIndexes(t, label, got)
		checkIndexes(t, "reference "+label, want)
		for _, e := range sg.Entities {
			seen[e.ID] = e
		}
	}
}

// count records which Step cases one tick reached, from the world before
// the tick, its actions and the reference deltas.
func (c *parityCoverage) count(before Snapshot, acts []Action, deltas []Delta) {
	kinds := make(map[EntityID]Entity, len(before.Entities))
	avatar := make(map[int]Entity)
	for _, e := range before.Entities {
		kinds[e.ID] = e
		if e.Kind == KindAvatar {
			avatar[e.Owner] = e
		}
	}
	perPlayer := make(map[int]int)
	for i, a := range acts {
		perPlayer[a.Player]++
		if i > 0 && a.Player < acts[i-1].Player {
			c.outOfOrder++
		}
		if e, ok := avatar[a.Player]; !ok {
			c.unknownActs++
		} else if e.HP <= 0 {
			c.deadActs++
		}
	}
	for _, n := range perPlayer {
		if n > 1 {
			c.multiActs++
		}
	}
	removals := 0
	for _, d := range deltas {
		if d.Removed {
			removals++
		}
		prev := kinds[d.ID]
		switch {
		case d.Removed && prev.Kind == KindNPC:
			c.npcKills++
		case d.Removed && prev.Kind == KindItem:
			c.pickups++
			takers := make(map[int]bool)
			for _, a := range acts {
				if a.Kind == ActPickUp && a.TargetEntity == d.ID {
					takers[a.Player] = true
				}
			}
			if len(takers) > 1 {
				c.contestedPickups++
			}
		case !d.Removed && d.Entity.Kind == KindAvatar && d.Entity.X == 8 && d.Entity.Y == 8 &&
			(prev.HP <= 0 || prev.X > 16 || prev.Y > 16):
			// One move covers at most MoveSpeed: landing on the respawn
			// point from farther away, or alive again, is a respawn.
			c.avatarRespawns++
		}
	}
	if removals > 1 {
		c.multiRemovals++
	}
}

// TestStepParityProperty holds Step to referenceStep over seeded random
// operation streams, and checks that the streams reached every case:
// NPC kills, avatar deaths and respawns, pickups (some contested by two
// players in one tick), actions from dead and unknown players, several
// actions from one player, and actions out of player order.
func TestStepParityProperty(t *testing.T) {
	var cov parityCoverage
	for seed := int64(1); seed <= 100; seed++ {
		data := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(data)
		runStepParity(t, data, &cov)
	}
	t.Logf("coverage %+v", cov)
	v := reflect.ValueOf(cov)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Int() == 0 {
			t.Errorf("no %s case reached", v.Type().Field(i).Name)
		}
	}
}

// FuzzStepParity is the fuzzing form of TestStepParityProperty.
func FuzzStepParity(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runStepParity(t, data, nil)
	})
}

// TestStepParityOwnerChange: an overwrite that hands a dead avatar to
// another owner, whose claim then passes to a third avatar, leaves the
// dead avatar unowned, so neither Step nor the reference respawns it.
func TestStepParityOwnerChange(t *testing.T) {
	got, want := New(200, 200), New(200, 200)
	for _, w := range []*World{got, want} {
		a := *w.SpawnAvatar(1, 50, 50)
		a.Owner, a.HP, a.Version = 2, 0, 2
		w.SetEntity(a)
		w.SetEntity(Entity{ID: 5, Kind: KindAvatar, Owner: 2, X: 60, Y: 60, HP: MaxHP, Version: 1})
	}
	dg, dw := got.Step(nil), referenceStep(want, nil)
	if !reflect.DeepEqual(dg, dw) {
		t.Fatalf("Step deltas %+v, reference %+v", dg, dw)
	}
	if !got.Snapshot().Equal(want.Snapshot()) {
		t.Fatal("snapshots diverge")
	}
	if got.Avatar(1) != nil || got.Avatar(2).ID != 5 {
		t.Fatalf("owner index %v, want only player 2 -> 5", got.byOwner)
	}
}

// TestOrderIndexMatchesMapKeys walks the ID order through every path that
// maintains it: spawns, out-of-order SetEntity inserts, overwrites,
// RemoveEntity, logouts, Restore from a shuffled snapshot, SetNextID, and
// Step's NPC-kill and pickup removals.
func TestOrderIndexMatchesMapKeys(t *testing.T) {
	w := New(200, 200)
	w.SpawnAvatar(1, 50, 50)
	npc := w.SpawnNPC(55, 50)
	item := w.SpawnItem(52, 50)
	for i := 0; i < 5; i++ {
		w.SpawnNPC(float64(20*i), 100)
	}
	checkIndexes(t, "spawns", w)

	w.SetEntity(Entity{ID: 40, Kind: KindNPC, Owner: -1, X: 10, Y: 10, HP: MaxHP, Version: 1})
	w.SetEntity(Entity{ID: 20, Kind: KindItem, Owner: -1, X: 30, Y: 30, Version: 1})
	w.SetEntity(Entity{ID: 5, Kind: KindNPC, Owner: -1, X: 90, Y: 90, HP: 50, Version: 9})
	checkIndexes(t, "SetEntity out of order", w)

	w.RemoveEntity(20)
	w.RemoveEntity(20)
	w.RemoveEntity(999)
	w.RemovePlayer(7)
	checkIndexes(t, "RemoveEntity", w)

	w.SetNextID(3)
	if w.NextID() != 41 {
		t.Fatalf("SetNextID(3) left next ID %d, want 41", w.NextID())
	}
	w.SpawnItem(1, 1)
	checkIndexes(t, "SetNextID then spawn", w)

	w.Step([]Action{{Player: 1, Kind: ActPickUp, TargetEntity: item.ID}})
	for w.Entity(npc.ID) != nil {
		w.Step([]Action{{Player: 1, Kind: ActAttack, TargetEntity: npc.ID}})
	}
	checkIndexes(t, "Step removals", w)

	w.RemovePlayer(1)
	checkIndexes(t, "logout", w)

	s := w.Snapshot()
	rand.New(rand.NewSource(1)).Shuffle(len(s.Entities), func(i, j int) {
		s.Entities[i], s.Entities[j] = s.Entities[j], s.Entities[i]
	})
	r := Restore(s, w.NextID())
	checkIndexes(t, "Restore shuffled", r)
	if !r.Snapshot().Equal(w.Snapshot()) {
		t.Fatal("restored world differs from its source")
	}
}

// moveBackAndForth returns one tick's actions for the bigWorld avatars:
// each steps toward a far target that flips every tick, so both move (and
// emit a delta) on every Step while staying near their spawn points.
func moveBackAndForth() func() []Action {
	acts := make([]Action, 2)
	flip := false
	return func() []Action {
		flip = !flip
		tx := 0.0
		if flip {
			tx = DefaultWidth
		}
		acts[0] = Action{Player: 1, Kind: ActMove, TargetX: tx, TargetY: 220}
		acts[1] = Action{Player: 2, Kind: ActMove, TargetX: DefaultWidth - tx, TargetY: 340}
		return acts
	}
}

// TestStepAllocs: a tick of the 20k-NPC world with two moving avatars
// allocates only the delta slice it returns, and a checkpoint-style
// SnapshotInto into a warmed snapshot allocates nothing.
func TestStepAllocs(t *testing.T) {
	w := bigWorld()
	next := moveBackAndForth()
	for i := 0; i < 4; i++ {
		w.Step(next())
	}
	if n := testing.AllocsPerRun(100, func() {
		if len(w.Step(next())) != 2 {
			t.Fatal("want two deltas per tick")
		}
	}); n != 1 {
		t.Fatalf("Step allocates %v times per tick, want 1 (the returned deltas)", n)
	}
	var s Snapshot
	w.SnapshotInto(&s)
	if n := testing.AllocsPerRun(20, func() { w.SnapshotInto(&s) }); n != 0 {
		t.Fatalf("SnapshotInto into a warmed snapshot allocates %v times, want 0", n)
	}
}
