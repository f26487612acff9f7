package virtualworld_test

import (
	"math"
	"math/rand"
	"testing"

	"cloudfog/internal/render"
	vw "cloudfog/internal/virtualworld"
)

// viewWidth, viewHeight size the equivalence worlds: not multiples of the
// cell size, so the last column and row are partial.
const viewWidth, viewHeight = 1000.0, 700.0

// edgyPos draws a position that is often on a special line: the world's
// edges (including the max edge clampPos produces), a cell boundary, or
// exactly on a viewport edge around a known centre.
func edgyPos(r *rand.Rand, centres [][2]float64, halfW, halfH float64) (x, y float64) {
	pick := func(size, half float64, axis int) float64 {
		switch r.Intn(6) {
		case 0:
			return size
		case 1:
			return 0
		case 2:
			return float64(r.Intn(int(size/vw.DefaultCellSize)+1)) * vw.DefaultCellSize
		case 3:
			if len(centres) > 0 {
				c := centres[r.Intn(len(centres))][axis]
				if r.Intn(2) == 0 {
					return c - half
				}
				return c + half
			}
		}
		return r.Float64() * size
	}
	return pick(viewWidth, halfW, 0), pick(viewHeight, halfH, 1)
}

// avatarCentres lists the current avatar positions: the centres of the
// viewports the views are queried with.
func avatarCentres(w *vw.World) [][2]float64 {
	var out [][2]float64
	for _, e := range w.Snapshot().Entities {
		if e.Kind == vw.KindAvatar {
			out = append(out, [2]float64{e.X, e.Y})
		}
	}
	return out
}

// referenceView is the snapshot path AppendView replaces: a full sorted
// copy, the renderer's viewport rule, and a linear cull.
func referenceView(s vw.Snapshot, player int, halfW, halfH float64) (vw.Viewport, []vw.Entity) {
	v := render.ViewportFor(s, player)
	v.HalfWidth, v.HalfHeight = halfW, halfH
	return v, vw.AppendVisibleEntities(nil, s, v)
}

// viewer is the query both World and Replica answer.
type viewer interface {
	AppendView(dst []vw.Entity, player int, halfW, halfH float64) (uint64, vw.Viewport, []vw.Entity)
	Snapshot() vw.Snapshot
}

// checkViews compares AppendView against referenceView, element for
// element, for every player in 0..maxPlayer (some have no avatar) and a
// spread of viewport sizes.
func checkViews(t *testing.T, label string, src viewer, maxPlayer int) {
	t.Helper()
	snap := src.Snapshot()
	halves := [][2]float64{
		{render.ViewHalfWidth, render.ViewHalfHeight},
		{vw.DefaultCellSize, vw.DefaultCellSize},
		{0, 0},
		{3 * viewWidth, 3 * viewHeight},
	}
	prefix := []vw.Entity{{ID: 999999}}
	for p := 0; p <= maxPlayer; p++ {
		for _, h := range halves {
			wantV, want := referenceView(snap, p, h[0], h[1])
			tick, v, got := src.AppendView(append([]vw.Entity(nil), prefix...), p, h[0], h[1])
			if tick != snap.Tick || v != wantV {
				t.Fatalf("%s player %d half %v: tick %d viewport %+v, want %d %+v", label, p, h, tick, v, snap.Tick, wantV)
			}
			if got[0] != prefix[0] {
				t.Fatalf("%s player %d: AppendView overwrote dst's prefix", label, p)
			}
			got = got[1:]
			if len(got) != len(want) {
				t.Fatalf("%s player %d half %v: %d visible, want %d", label, p, h, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s player %d half %v: entity %d = %+v, want %+v", label, p, h, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAppendViewMatchesSnapshotCull drives a World and a Replica fed by
// its deltas through spawns on special lines, moves, removals and
// re-additions of the same IDs, and avatar logouts and re-logins; after
// every step both views must equal the snapshot cull.
func TestAppendViewMatchesSnapshotCull(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := vw.New(viewWidth, viewHeight)
		rep := vw.NewReplica(viewWidth, viewHeight)
		const players = 6
		pos := func() (float64, float64) {
			return edgyPos(r, avatarCentres(w), render.ViewHalfWidth, render.ViewHalfHeight)
		}
		for p := 1; p <= players; p++ {
			w.SpawnAvatar(p, viewWidth/2, viewHeight/2)
			x, y := pos()
			w.SpawnAvatar(p+players, x, y)
		}
		for i := 0; i < 150; i++ {
			x, y := pos()
			if i%5 == 0 {
				w.SpawnItem(x, y)
			} else {
				w.SpawnNPC(x, y)
			}
		}
		rep.Seed(w.Snapshot())
		checkViews(t, "world", w, 2*players+1)
		checkViews(t, "replica", rep, 2*players+1)

		for step := 0; step < 40; step++ {
			var deltas []vw.Delta
			switch step % 4 {
			case 0, 1:
				// Moves: avatars walk, and an NPC jumps onto a special line.
				var acts []vw.Action
				for p := 1; p <= 2*players; p++ {
					tx, ty := pos()
					acts = append(acts, vw.Action{Player: p, Kind: vw.ActMove, TargetX: tx, TargetY: ty})
				}
				deltas = w.Step(acts)
				ents := w.Snapshot().Entities
				e := ents[r.Intn(len(ents))]
				e.X, e.Y = pos()
				e.Version++
				w.SetEntity(e)
				deltas = append(deltas, vw.Delta{ID: e.ID, Entity: e})
			case 2:
				// Remove an entity, then re-add the same ID elsewhere.
				ents := w.Snapshot().Entities
				e := ents[r.Intn(len(ents))]
				w.RemoveEntity(e.ID)
				rep.Apply(w.Tick(), []vw.Delta{{ID: e.ID, Removed: true}})
				checkViews(t, "world after removal", w, 2*players+1)
				checkViews(t, "replica after removal", rep, 2*players+1)
				e.X, e.Y = pos()
				e.Version++
				w.SetEntity(e)
				deltas = []vw.Delta{{ID: e.ID, Entity: e}}
			case 3:
				// A player logs out (its view falls back to the world
				// centre) and, half the time, back in under a fresh ID.
				p := r.Intn(2*players) + 1
				if a := w.Avatar(p); a != nil {
					id := a.ID
					w.RemovePlayer(p)
					deltas = append(deltas, vw.Delta{ID: id, Removed: true})
				}
				if r.Intn(2) == 0 {
					x, y := pos()
					a := w.SpawnAvatar(p, x, y)
					deltas = append(deltas, vw.Delta{ID: a.ID, Entity: *a})
				}
			}
			rep.Apply(w.Tick(), deltas)
			if !rep.Snapshot().Equal(w.Snapshot()) {
				t.Fatalf("seed %d step %d: replica diverged from the world", seed, step)
			}
			checkViews(t, "world", w, 2*players+1)
			checkViews(t, "replica", rep, 2*players+1)
		}
	}
}

// TestReplicaGridMatchesWorld: a replica's grid is the same derived index
// as its source world's, right after Seed and after any mix of streamed
// deltas, cell keyframes and removals.
func TestReplicaGridMatchesWorld(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	w := vw.New(viewWidth, viewHeight)
	for p := 1; p <= 8; p++ {
		w.SpawnAvatar(p, r.Float64()*viewWidth, r.Float64()*viewHeight)
	}
	for i := 0; i < 400; i++ {
		x, y := edgyPos(r, nil, 0, 0)
		w.SpawnNPC(x, y)
	}
	rep := vw.NewReplica(0, 0)
	rep.Seed(w.Snapshot())
	if got, want := rep.Grid().Digest(), w.Grid().Digest(); got != want {
		t.Fatalf("seeded replica grid %x, world grid %x", got, want)
	}
	if rep.Grid().Geom() != w.Grid().Geom() {
		t.Fatalf("replica geometry %+v, world %+v", rep.Grid().Geom(), w.Grid().Geom())
	}
	// The grid is a function of positions alone: a snapshot seeded or
	// restored out of ID order yields the same grid.
	shuffled := w.Snapshot()
	r.Shuffle(len(shuffled.Entities), func(i, j int) {
		shuffled.Entities[i], shuffled.Entities[j] = shuffled.Entities[j], shuffled.Entities[i]
	})
	unordered := vw.NewReplica(0, 0)
	unordered.Seed(shuffled)
	if got, want := unordered.Grid().Digest(), w.Grid().Digest(); got != want {
		t.Fatalf("replica seeded out of order: grid %x, world grid %x", got, want)
	}
	for _, s := range []vw.Snapshot{w.Snapshot(), shuffled} {
		if got, want := vw.Restore(s, w.NextID()).Grid().Digest(), w.Grid().Digest(); got != want {
			t.Fatalf("restored world grid %x, source world grid %x", got, want)
		}
	}
	geo := w.Grid().Geom()
	var ids []vw.EntityID
	for tick := 0; tick < 300; tick++ {
		var acts []vw.Action
		for p := 1; p <= 8; p++ {
			acts = append(acts, vw.Action{Player: p, Kind: vw.ActMove,
				TargetX: r.Float64() * viewWidth, TargetY: r.Float64() * viewHeight})
		}
		deltas := w.Step(acts)
		// Teleport a few NPCs (cross-cell moves) and kill one.
		ents := w.Snapshot().Entities
		for k := 0; k < 3; k++ {
			e := *w.Entity(ents[r.Intn(len(ents))].ID) // current copy: SetEntity replaces the pointer
			e.X, e.Y = edgyPos(r, nil, 0, 0)
			e.Version++
			w.SetEntity(e)
			deltas = append(deltas, vw.Delta{ID: e.ID, Entity: e})
		}
		if victim := ents[r.Intn(len(ents))]; victim.Kind == vw.KindNPC {
			w.RemoveEntity(victim.ID)
			deltas = append(deltas, vw.Delta{ID: victim.ID, Removed: true})
		}
		if tick%3 == 0 {
			// Lose this tick's deltas for one cell's entities, then heal
			// that cell with a keyframe: its full current population.
			c := geo.CellOf(r.Float64()*viewWidth, r.Float64()*viewHeight)
			var kept []vw.Delta
			for _, d := range deltas {
				if d.Removed || geo.CellOf(d.Entity.X, d.Entity.Y) != c {
					kept = append(kept, d)
				}
			}
			rep.Apply(w.Tick(), kept)
			ids = w.Grid().AppendCell(ids[:0], c)
			kf := make([]vw.Delta, 0, len(ids))
			for _, id := range ids {
				kf = append(kf, vw.Delta{ID: id, Entity: *w.Entity(id)})
			}
			rep.ApplyCellKeyframe(w.Tick(), c, kf)
		} else {
			rep.Apply(w.Tick(), deltas)
		}
		if got, want := rep.Grid().Digest(), w.Grid().Digest(); got != want {
			t.Fatalf("tick %d: replica grid %x, world grid %x", tick, got, want)
		}
		if rep.Grid().Len() != rep.NumEntities() {
			t.Fatalf("tick %d: replica grid holds %d entities, replica %d", tick, rep.Grid().Len(), rep.NumEntities())
		}
	}
	if !rep.Snapshot().Equal(w.Snapshot()) {
		t.Fatal("replica diverged from the world")
	}
}

// TestAppendViewSteadyStateAllocs: with a warmed-up scratch slice the view
// query allocates nothing, on both receivers.
func TestAppendViewSteadyStateAllocs(t *testing.T) {
	w := vw.New(0, 0)
	w.SpawnAvatar(1, 300, 220)
	for i := 0; i < 2000; i++ {
		w.SpawnNPC(float64(i%97)*10, float64(i%89)*11)
	}
	rep := vw.NewReplica(0, 0)
	rep.Seed(w.Snapshot())
	for _, src := range []viewer{w, rep} {
		_, _, vis := src.AppendView(nil, 1, render.ViewHalfWidth, render.ViewHalfHeight)
		if len(vis) < 2 {
			t.Fatalf("fixture too sparse: %d visible", len(vis))
		}
		if n := testing.AllocsPerRun(50, func() {
			_, _, vis = src.AppendView(vis[:0], 1, render.ViewHalfWidth, render.ViewHalfHeight)
		}); n != 0 {
			t.Fatalf("%T.AppendView allocates %.1f/op in steady state, want 0", src, n)
		}
	}
}

// TestAppendViewRoundedEdge: Viewport.Contains compares a rounded
// difference, so it can accept a point just outside the exact viewport
// edge. Here the edge falls on a cell boundary (184-120 = 64) and the
// NPC sits one ulp below it, in the previous cell: |x-184| rounds to
// exactly 120. The grid walk must still reach that cell.
func TestAppendViewRoundedEdge(t *testing.T) {
	w := vw.New(0, 0)
	w.SpawnAvatar(1, 184, 300)
	x := math.Nextafter(vw.DefaultCellSize, 0)
	npc := w.SpawnNPC(x, 300)
	v := render.ViewportFor(w.Snapshot(), 1)
	if !v.Contains(x, 300) {
		t.Fatal("fixture lost its point: Contains rejects the NPC")
	}
	rep := vw.NewReplica(0, 0)
	rep.Seed(w.Snapshot())
	for _, src := range []viewer{w, rep} {
		_, _, vis := src.AppendView(nil, 1, render.ViewHalfWidth, render.ViewHalfHeight)
		if len(vis) != 2 || vis[1].ID != npc.ID {
			t.Fatalf("%T.AppendView = %+v, want the avatar and NPC %d", src, vis, npc.ID)
		}
	}
}

func TestViewport(t *testing.T) {
	v := vw.Viewport{CenterX: 100, CenterY: 100, HalfWidth: 50, HalfHeight: 30}
	if !v.Contains(100, 100) || !v.Contains(150, 130) {
		t.Error("viewport excludes interior points")
	}
	if v.Contains(151, 100) || v.Contains(100, 131) {
		t.Error("viewport includes exterior points")
	}
}

func TestVisibleEntities(t *testing.T) {
	w := vw.New(400, 400)
	w.SpawnAvatar(1, 100, 100)
	w.SpawnNPC(120, 110)
	w.SpawnNPC(350, 350)
	v := vw.Viewport{CenterX: 100, CenterY: 100, HalfWidth: 60, HalfHeight: 60}
	prefix := []vw.Entity{{ID: 99}}
	vis := vw.AppendVisibleEntities(prefix, w.Snapshot(), v)
	if len(vis) != 3 || vis[0].ID != 99 {
		t.Fatalf("visible = %+v, want the prefix plus 2 entities", vis)
	}
	vis = vis[1:]
	for i := 1; i < len(vis); i++ {
		if vis[i].ID <= vis[i-1].ID {
			t.Fatal("visible entities not sorted")
		}
	}
}
