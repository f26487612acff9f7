package virtualworld

import (
	"math"
	"sort"
)

// Region is an axis-aligned rectangle of the virtual world, the unit of
// server load balancing.
type Region struct {
	// MinX, MinY, MaxX, MaxY bound the region (max-exclusive except at
	// the world edge).
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether the point lies in the region.
func (r Region) Contains(x, y float64) bool {
	return x >= r.MinX && x < r.MaxX && y >= r.MinY && y < r.MaxY
}

// Area returns the region's area.
func (r Region) Area() float64 { return (r.MaxX - r.MinX) * (r.MaxY - r.MinY) }

// PartitionKD splits the world into n regions with a kd-tree over the
// avatar positions, the load-balancing mechanism of Bezerra et al. that
// MMOG server farms use: each split halves the heaviest region along its
// longer axis at the median avatar, so every region carries a comparable
// number of avatars. n is rounded down to a reachable region count
// (at least 1).
func PartitionKD(s Snapshot, n int) []Region {
	if n < 1 {
		n = 1
	}
	type node struct {
		region  Region
		avatars []Entity
	}
	var avatars []Entity
	for _, e := range s.Entities {
		if e.Kind == KindAvatar {
			avatars = append(avatars, e)
		}
	}
	root := node{
		region:  Region{MinX: 0, MinY: 0, MaxX: s.Width, MaxY: s.Height},
		avatars: avatars,
	}
	nodes := []node{root}
	for len(nodes) < n {
		// Split the region with the most avatars; stop when nothing is
		// splittable.
		best := -1
		for i, nd := range nodes {
			if len(nd.avatars) >= 2 && (best < 0 || len(nd.avatars) > len(nodes[best].avatars)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		nd := nodes[best]
		r := nd.region
		vertical := (r.MaxX - r.MinX) >= (r.MaxY - r.MinY)
		sorted := append([]Entity(nil), nd.avatars...)
		if vertical {
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].X < sorted[j].X })
		} else {
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Y < sorted[j].Y })
		}
		mid := len(sorted) / 2
		var cut float64
		if vertical {
			cut = (sorted[mid-1].X + sorted[mid].X) / 2
			if cut <= r.MinX || cut >= r.MaxX {
				cut = (r.MinX + r.MaxX) / 2
			}
		} else {
			cut = (sorted[mid-1].Y + sorted[mid].Y) / 2
			if cut <= r.MinY || cut >= r.MaxY {
				cut = (r.MinY + r.MaxY) / 2
			}
		}
		var left, right node
		if vertical {
			left.region = Region{MinX: r.MinX, MinY: r.MinY, MaxX: cut, MaxY: r.MaxY}
			right.region = Region{MinX: cut, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
		} else {
			left.region = Region{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: cut}
			right.region = Region{MinX: r.MinX, MinY: cut, MaxX: r.MaxX, MaxY: r.MaxY}
		}
		for _, a := range nd.avatars {
			if left.region.Contains(a.X, a.Y) {
				left.avatars = append(left.avatars, a)
			} else {
				right.avatars = append(right.avatars, a)
			}
		}
		nodes[best] = left
		nodes = append(nodes, right)
	}
	out := make([]Region, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.region
	}
	return out
}

// RegionOf returns the index of the region containing the point, or the
// nearest region when the point sits exactly on the world's max edge.
func RegionOf(regions []Region, x, y float64) int {
	for i, r := range regions {
		if r.Contains(x, y) {
			return i
		}
	}
	// Max-edge case: pick the region whose center is closest.
	best, bestD := 0, math.Inf(1)
	for i, r := range regions {
		cx, cy := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
		if d := math.Hypot(cx-x, cy-y); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

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

// VisibleEntities returns the snapshot entities inside the viewport,
// sorted by ID — the interest set a supernode renders (and the only
// entities whose updates matter for that player, the content-adaptation
// insight of Hemmati et al. the paper cites).
func VisibleEntities(s Snapshot, v Viewport) []Entity {
	return AppendVisibleEntities(nil, s, v)
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

// FilterDeltas returns only the deltas that matter to the viewport:
// changes of visible entities plus all removals (cheap to apply, avoids
// ghosts). This is the interest-managed update stream a bandwidth-aware
// cloud sends per supernode neighborhood.
func FilterDeltas(deltas []Delta, v Viewport) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Removed || v.Contains(d.Entity.X, d.Entity.Y) {
			out = append(out, d)
		}
	}
	return out
}
