package checkpoint

import (
	"encoding/binary"

	"cloudfog/internal/protocol"
	"cloudfog/internal/virtualworld"
)

// LogEntry is one tick of the primary's delta log: everything a standby
// must fold into its last checkpoint to track the authoritative world
// exactly. Unlike the supernode update stream, the log also carries
// session-membership changes (avatar spawns and despawns are encoded as
// full-state / removal deltas by the cloud) and the entity ID allocator
// position, so replaying checkpoint+log reproduces the primary's world
// bit-for-bit, not just its visible entities.
//
// The primary emits one entry per tick even when Deltas is empty: the
// stream doubles as the liveness signal the standby's promotion timer
// watches (DESIGN.md §12).
type LogEntry struct {
	// Epoch is the authority epoch the tick was computed in.
	Epoch uint64
	// Tick is the world tick after applying Deltas.
	Tick uint64
	// NextID is the entity ID allocator position after the tick.
	NextID virtualworld.EntityID
	// Deltas are the tick's entity changes, including session spawns and
	// removals, in authoritative order.
	Deltas []virtualworld.Delta
}

// EncodedSize returns the exact AppendTo length in bytes.
func (e *LogEntry) EncodedSize() int {
	return 8 + 8 + 4 + protocol.DeltasSize(e.Deltas) // epoch + tick + next ID + delta list
}

// AppendTo appends the encoded entry to buf and returns the extended
// slice; with enough capacity it does not allocate.
//
//cfg:allocfree
func (e *LogEntry) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, e.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, e.Tick)
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.NextID))
	return protocol.AppendDeltas(buf, e.Deltas)
}

// DecodeLogEntry decodes buf into e, reusing e.Deltas' capacity. On error
// e holds partially decoded data and must not be used.
func DecodeLogEntry(buf []byte, e *LogEntry) error {
	d := protocol.NewCursor(buf)
	e.Epoch = d.U64()
	e.Tick = d.U64()
	e.NextID = virtualworld.EntityID(d.U32())
	n := int(d.U32())
	if !fits(&d, n, 4+1) {
		return ErrTruncated
	}
	e.Deltas = d.Deltas(e.Deltas[:0], n)
	return finish(&d)
}

// Apply folds one log entry into a restored world. Entries come from a
// single totally-ordered primary, so deltas are applied unconditionally
// (no version gating, unlike replica convergence).
func (e *LogEntry) Apply(w *virtualworld.World) {
	for i := range e.Deltas {
		d := &e.Deltas[i]
		if d.Removed {
			w.RemoveEntity(d.ID)
			continue
		}
		w.SetEntity(d.Entity)
	}
	w.SetTick(e.Tick)
	w.SetNextID(e.NextID)
}

// Replay rebuilds the authoritative world from a checkpoint plus its
// delta log suffix. Entries belonging to an epoch other than the
// checkpoint's, or to ticks the checkpoint already covers, are skipped —
// the standby buffers log entries concurrently with checkpoint arrival,
// so overlap at the boundary is expected.
func Replay(st *State, entries []LogEntry) *virtualworld.World {
	w := st.RestoreWorld()
	for i := range entries {
		e := &entries[i]
		if e.Epoch != st.Epoch || e.Tick <= w.Tick() {
			continue
		}
		e.Apply(w)
	}
	return w
}
