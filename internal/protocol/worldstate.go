package protocol

import (
	"encoding/binary"
	"math"

	"cloudfog/internal/virtualworld"
)

// This file is the one byte format of the world state, the contract
// between the tiers: the cloud's update stream (UpdateBatch, CellBatch),
// the replica seeds (SupernodeWelcome, ResumeReply) and the standby's
// checkpoint log (internal/checkpoint State and LogEntry) all encode and
// decode entities, delta lists and snapshots here. Count guards,
// ordering checks and trailing-byte checks stay with each caller, because
// the wire and the checkpoint bound them differently.

// EntityWireBytes is the encoded size of one entity (for Λ accounting).
const EntityWireBytes = 4 + 1 + 4 + 8 + 8 + 8 + 2 + 1 + 4

// putEntity appends the fixed-width (EntityWireBytes) entity encoding.
func putEntity(buf []byte, e *virtualworld.Entity) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.ID))
	buf = append(buf, uint8(e.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(e.Owner)))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.X))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.Y))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.Facing))
	buf = binary.BigEndian.AppendUint16(buf, uint16(e.HP))
	buf = append(buf, e.State)
	return binary.BigEndian.AppendUint32(buf, e.Version)
}

func (r *Cursor) entity() virtualworld.Entity {
	return virtualworld.Entity{
		ID:      virtualworld.EntityID(r.U32()),
		Kind:    virtualworld.EntityKind(r.U8()),
		Owner:   int(r.I32()),
		X:       r.F64(),
		Y:       r.F64(),
		Facing:  r.F64(),
		HP:      int16(r.U16()),
		State:   r.U8(),
		Version: r.U32(),
	}
}

// AppendSnapshot appends the snapshot encoding — tick, width, height,
// entity count, then each entity — and returns the extended slice; with
// enough capacity it does not allocate.
func AppendSnapshot(buf []byte, s *virtualworld.Snapshot) []byte {
	buf = binary.BigEndian.AppendUint64(buf, s.Tick)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Width))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Height))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Entities)))
	for i := range s.Entities {
		buf = putEntity(buf, &s.Entities[i])
	}
	return buf
}

// SnapshotSize returns the length AppendSnapshot appends for s.
func SnapshotSize(s *virtualworld.Snapshot) int {
	return 8 + 8 + 8 + 4 + len(s.Entities)*EntityWireBytes
}

// SnapshotHeader reads a snapshot's tick, width and height into s and
// returns its entity count. The caller bounds the count, then reads the
// entities with Entities.
func (r *Cursor) SnapshotHeader(s *virtualworld.Snapshot) int {
	s.Tick = r.U64()
	s.Width = r.F64()
	s.Height = r.F64()
	return int(r.U32())
}

// Entities appends up to n encoded entities to dst, stopping at the first
// short read, and returns the extended slice.
func (r *Cursor) Entities(dst []virtualworld.Entity, n int) []virtualworld.Entity {
	for i := 0; i < n && r.err == nil; i++ {
		dst = append(dst, r.entity())
	}
	return dst
}

// AppendDeltas appends the delta-list encoding — count, then per delta
// the entity ID, a removed flag and, unless removed, the entity — and
// returns the extended slice; with enough capacity it does not allocate.
func AppendDeltas(buf []byte, ds []virtualworld.Delta) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ds)))
	for i := range ds {
		d := &ds[i]
		buf = binary.BigEndian.AppendUint32(buf, uint32(d.ID))
		if d.Removed {
			buf = append(buf, 1)
			continue
		}
		buf = append(buf, 0)
		buf = putEntity(buf, &d.Entity)
	}
	return buf
}

// DeltasSize returns the length AppendDeltas appends for ds.
func DeltasSize(ds []virtualworld.Delta) int {
	n := 4 // count
	for i := range ds {
		n += 4 + 1 // entity ID + removed flag
		if !ds[i].Removed {
			n += EntityWireBytes
		}
	}
	return n
}

// Deltas appends up to n encoded deltas to dst, stopping at the first
// short read, and returns the extended slice. The caller reads and bounds
// the count (U32) first. A removed flag of 1 marks a removal; any other
// value is followed by the entity.
func (r *Cursor) Deltas(dst []virtualworld.Delta, n int) []virtualworld.Delta {
	for i := 0; i < n && r.err == nil; i++ {
		id := virtualworld.EntityID(r.U32())
		if r.U8() == 1 {
			dst = append(dst, virtualworld.Delta{ID: id, Removed: true})
		} else {
			dst = append(dst, virtualworld.Delta{ID: id, Entity: r.entity()})
		}
	}
	return dst
}
