package virtualworld

import (
	"cmp"
	"math"
	"slices"
)

// This file is the per-frame view query: the entities a player's video
// frame draws, found through the grid in time proportional to the cells
// the viewport overlaps rather than to the world. Both the cloud's
// authoritative World (fallback video sessions) and a supernode's Replica
// answer it; the result is, entity for entity, what culling a full sorted
// Snapshot with the same viewport yields.

// Viewport is a player's view into the world: the basis of interest
// management ("renders game video for n_i based on n_i's viewing position
// and angle") and of the view-dependent work supernodes do.
type Viewport struct {
	// CenterX, CenterY is the view center (usually the avatar position).
	CenterX, CenterY float64
	// HalfWidth, HalfHeight are the view extents.
	HalfWidth, HalfHeight float64
}

// Contains reports whether an entity position is visible.
func (v Viewport) Contains(x, y float64) bool {
	return math.Abs(x-v.CenterX) <= v.HalfWidth && math.Abs(y-v.CenterY) <= v.HalfHeight
}

// AppendVisibleEntities appends the snapshot's entities inside the
// viewport to dst and returns the extended slice; with enough capacity it
// does not allocate. It is the linear reference for the grid-indexed
// World.AppendView and Replica.AppendView, which the per-frame render
// path uses and which return the same entities in the same order.
func AppendVisibleEntities(dst []Entity, s Snapshot, v Viewport) []Entity {
	for _, e := range s.Entities {
		if v.Contains(e.X, e.Y) {
			dst = append(dst, e)
		}
	}
	return dst
}

// viewSpan returns the column and row ranges of the cells the viewport
// overlaps. The rectangle is widened by a relative hair so that a point
// Viewport.Contains accepts through a rounded subtraction is never in a
// cell outside the span; the caller's Contains filter removes the excess.
func (g GridGeom) viewSpan(v Viewport) (c0, r0, c1, r1 int) {
	padX := (math.Abs(v.CenterX) + v.HalfWidth) * 1e-12
	padY := (math.Abs(v.CenterY) + v.HalfHeight) * 1e-12
	return g.col(v.CenterX - v.HalfWidth - padX), g.row(v.CenterY - v.HalfHeight - padY),
		g.col(v.CenterX + v.HalfWidth + padX), g.row(v.CenterY + v.HalfHeight + padY)
}

// viewSource is what the view walk reads besides the grid: the indexed
// entity for an ID (World keeps entity pointers, Replica values).
type viewSource interface {
	indexed(id EntityID) Entity
}

func (w *World) indexed(id EntityID) Entity { return *w.entities[id] }

func (r *Replica) indexed(id EntityID) Entity { return r.entities[id] }

// appendView appends the entities of g's cells overlapping v that v
// contains to dst, sorted by ID — the walk behind both AppendView
// methods.
func appendView[S viewSource](dst []Entity, g *Grid, v Viewport, src S) []Entity {
	base := len(dst)
	c0, r0, c1, r1 := g.geo.viewSpan(v)
	for row := r0; row <= r1; row++ {
		rowBase := row * g.geo.Cols
		for _, cell := range g.cells[rowBase+c0 : rowBase+c1+1] {
			for _, id := range cell {
				if e := src.indexed(id); v.Contains(e.X, e.Y) {
					dst = append(dst, e)
				}
			}
		}
	}
	slices.SortFunc(dst[base:], func(a, b Entity) int { return cmp.Compare(a.ID, b.ID) })
	return dst
}

// AppendView appends the entities inside player's halfW×halfH viewport
// to dst, sorted by ID, and returns the world tick, the viewport and the
// extended slice. The viewport is centred on the player's avatar, or on
// the world centre when the player has none. With enough capacity in dst
// it does not allocate.
//
//cfg:allocfree
func (w *World) AppendView(dst []Entity, player int, halfW, halfH float64) (uint64, Viewport, []Entity) {
	v := Viewport{CenterX: w.width / 2, CenterY: w.height / 2, HalfWidth: halfW, HalfHeight: halfH}
	if a := w.Avatar(player); a != nil {
		v.CenterX, v.CenterY = a.X, a.Y
	}
	return w.tick, v, appendView(dst, w.grid, v, w)
}

// AppendView is World.AppendView over the replica: the entities a
// supernode draws for one attached player's frame.
//
//cfg:allocfree
func (r *Replica) AppendView(dst []Entity, player int, halfW, halfH float64) (uint64, Viewport, []Entity) {
	v := Viewport{CenterX: r.width / 2, CenterY: r.height / 2, HalfWidth: halfW, HalfHeight: halfH}
	if x, y, ok := r.AvatarPos(player); ok {
		v.CenterX, v.CenterY = x, y
	}
	return r.tick, v, appendView(dst, r.grid, v, r)
}
