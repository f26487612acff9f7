// Package checkpoint serializes the authoritative cloud-tier state —
// world entities, admitted player sessions, the reputation GlobalBook,
// and RNG stream positions — into a deterministic, versioned binary
// form, and restores it bit-identically.
//
// This is the crash-recovery substrate of DESIGN.md §12: the primary
// encodes a State on a tick-aligned cadence and streams it (plus a
// per-tick delta log) to a warm standby; on promotion the standby
// rebuilds the exact world the primary last committed. Determinism is
// load-bearing: because every simulator input is seeded and the encoding
// is canonical (entities, sessions, address IDs, and book entries in
// sorted order; big-endian fixed-width fields), equality of state is
// equality of bytes, so recovery is testable by hashing.
//
// Encoders follow the zero-allocation append style of the wire path
// (DESIGN.md §10): AppendTo(buf) []byte grows the caller's buffer, and
// decode reuses the destination's backing arrays. A steady-state
// checkpoint encode performs zero allocations. The world snapshot and the
// delta log use the wire protocol's world-state encoding and its Cursor,
// so the standby decodes the same bytes a supernode replica does.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"cloudfog/internal/protocol"
	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// Magic and Version identify the checkpoint format. Version bumps on any
// layout change; a standby refuses checkpoints from a different version
// rather than guessing.
const (
	Magic   uint32 = 0x43464B50 // "CFKP"
	Version uint16 = 1
)

// Decode errors.
var (
	// ErrBadMagic means the buffer is not a checkpoint.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrBadVersion means the checkpoint was written by an incompatible
	// format version.
	ErrBadVersion = errors.New("checkpoint: unsupported version")
	// ErrTruncated means the buffer ended mid-field.
	ErrTruncated = errors.New("checkpoint: truncated")
	// ErrNotCanonical means a sorted section was out of order — the bytes
	// could not have been produced by AppendTo, so bit-identity guarantees
	// would not hold.
	ErrNotCanonical = errors.New("checkpoint: non-canonical encoding")
)

// AddrID is one entry of the cloud's stable address→ID assignment, which
// keys the reputation book. It must survive failover or post-promotion
// QoE reports would be credited to fresh IDs.
type AddrID struct {
	// Addr is the supernode's advertised stream address.
	Addr string
	// ID is the stable reputation ID assigned to it.
	ID int32
}

// State is one deterministic snapshot of the authoritative cloud state.
// All slice fields are in canonical (sorted) order; AppendTo encodes them
// as-is and DecodeState verifies the order.
type State struct {
	// Epoch is the authority epoch the snapshot was taken in.
	Epoch uint64
	// World is the entity snapshot (entities ascending by ID).
	World virtualworld.Snapshot
	// NextID is the world's entity ID allocator position.
	NextID virtualworld.EntityID
	// Sessions are the admitted player IDs, ascending.
	Sessions []int32
	// AddrIDs is the address→reputation-ID table, ascending by Addr.
	AddrIDs []AddrID
	// Book is the reputation GlobalBook (entries ascending by supernode ID).
	Book reputation.BookState
	// RNG is the cloud's ladder-ranking stream position.
	RNG rng.State
}

// EncodedSize returns the exact AppendTo length in bytes, computed
// arithmetically.
func (s *State) EncodedSize() int {
	n := 4 + 2 // magic + version
	n += 8     // epoch
	n += protocol.SnapshotSize(&s.World)
	n += 4 // next ID
	n += 4 + len(s.Sessions)*4
	n += 4
	for _, a := range s.AddrIDs {
		n += 2 + len(a.Addr) + 4
	}
	n += 8 + 4 // lambda + entry count
	for _, e := range s.Book.Entries {
		n += 4 + 4 + len(e.Ratings)*(8+4)
	}
	n += 8 + 8 + 8 // rng seed, splits, draws
	return n
}

// AppendTo appends the canonical encoding of s to buf and returns the
// extended slice; with enough capacity it does not allocate.
//
//cfg:allocfree
func (s *State) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, Magic)
	buf = binary.BigEndian.AppendUint16(buf, Version)
	buf = binary.BigEndian.AppendUint64(buf, s.Epoch)

	buf = protocol.AppendSnapshot(buf, &s.World)
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.NextID))

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Sessions)))
	for _, p := range s.Sessions {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
	}

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.AddrIDs)))
	for _, a := range s.AddrIDs {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(a.Addr)))
		buf = append(buf, a.Addr...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(a.ID))
	}

	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Book.Lambda))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Book.Entries)))
	for _, e := range s.Book.Entries {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(e.SupernodeID)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Ratings)))
		for _, r := range e.Ratings {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.Value))
			buf = binary.BigEndian.AppendUint32(buf, uint32(int32(r.Day)))
		}
	}

	buf = binary.BigEndian.AppendUint64(buf, s.RNG.Seed)
	buf = binary.BigEndian.AppendUint64(buf, s.RNG.Splits)
	buf = binary.BigEndian.AppendUint64(buf, s.RNG.Draws)
	return buf
}

// DecodeState decodes buf into s, reusing s's backing arrays (entities,
// sessions, address table, book entries and their rating slices). On
// error s holds partially decoded data and must not be used.
func DecodeState(buf []byte, s *State) error {
	d := protocol.NewCursor(buf)
	if d.U32() != Magic {
		if d.Err() != nil {
			return ErrTruncated
		}
		return ErrBadMagic
	}
	if v := d.U16(); v != Version {
		if d.Err() != nil {
			return ErrTruncated
		}
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	s.Epoch = d.U64()

	ne := d.SnapshotHeader(&s.World)
	if !fits(&d, ne, protocol.EntityWireBytes) {
		return ErrTruncated
	}
	s.World.Entities = d.Entities(s.World.Entities[:0], ne)
	for i := 1; i < ne; i++ {
		if s.World.Entities[i].ID <= s.World.Entities[i-1].ID {
			return ErrNotCanonical
		}
	}
	s.NextID = virtualworld.EntityID(d.U32())

	ns := int(d.U32())
	if !fits(&d, ns, 4) {
		return ErrTruncated
	}
	s.Sessions = s.Sessions[:0]
	for i := 0; i < ns; i++ {
		s.Sessions = append(s.Sessions, d.I32())
		if i > 0 && s.Sessions[i] <= s.Sessions[i-1] {
			return ErrNotCanonical
		}
	}

	na := int(d.U32())
	if !fits(&d, na, 2+4) {
		return ErrTruncated
	}
	s.AddrIDs = s.AddrIDs[:0]
	for i := 0; i < na; i++ {
		s.AddrIDs = append(s.AddrIDs, AddrID{Addr: d.Str(), ID: d.I32()})
		if i > 0 && s.AddrIDs[i].Addr <= s.AddrIDs[i-1].Addr {
			return ErrNotCanonical
		}
	}

	s.Book.Lambda = d.F64()
	nb := int(d.U32())
	if !fits(&d, nb, 4+4) {
		return ErrTruncated
	}
	entries := s.Book.Entries[:0]
	for i := 0; i < nb; i++ {
		if len(entries) < cap(entries) {
			entries = entries[:len(entries)+1]
		} else {
			entries = append(entries, reputation.BookEntry{})
		}
		e := &entries[len(entries)-1]
		e.SupernodeID = int(d.I32())
		nr := int(d.U32())
		if !fits(&d, nr, 8+4) {
			return ErrTruncated
		}
		e.Ratings = e.Ratings[:0]
		for k := 0; k < nr; k++ {
			e.Ratings = append(e.Ratings, reputation.Rating{Value: d.F64(), Day: int(d.I32())})
		}
		if i > 0 && entries[i].SupernodeID <= entries[i-1].SupernodeID {
			return ErrNotCanonical
		}
	}
	s.Book.Entries = entries

	s.RNG.Seed = d.U64()
	s.RNG.Splits = d.U64()
	s.RNG.Draws = d.U64()
	return finish(&d)
}

// Canonicalize sorts the slice fields of s into canonical order. The
// cloud fills State from map-backed structures whose iteration order is
// arbitrary; this makes the subsequent AppendTo deterministic. It
// allocates nothing.
func (s *State) Canonicalize() {
	slices.SortFunc(s.World.Entities, func(a, b virtualworld.Entity) int {
		return int(int64(a.ID) - int64(b.ID))
	})
	slices.Sort(s.Sessions)
	slices.SortFunc(s.AddrIDs, func(a, b AddrID) int {
		switch {
		case a.Addr < b.Addr:
			return -1
		case a.Addr > b.Addr:
			return 1
		default:
			return 0
		}
	})
	slices.SortFunc(s.Book.Entries, func(a, b reputation.BookEntry) int {
		return a.SupernodeID - b.SupernodeID
	})
}

// RestoreWorld rebuilds an authoritative World from the snapshot —
// bit-identical to the world the checkpoint was taken from.
func (s *State) RestoreWorld() *virtualworld.World {
	return virtualworld.Restore(s.World, s.NextID)
}

// Hash returns the FNV-1a 64 digest of an encoded checkpoint or log
// entry. Because the encoding is canonical, equal hashes over equal-epoch
// states mean bit-identical authoritative state.
func Hash(encoded []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range encoded {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// --- decode helpers ---------------------------------------------------------

// fits sanity-checks a decoded element count against the bytes remaining,
// so a corrupt count fails fast instead of growing a huge slice.
func fits(d *protocol.Cursor, count, minBytes int) bool {
	return d.Err() == nil && count >= 0 && count*minBytes <= d.Remaining()
}

// finish reports the outcome of a complete decode: a short read as
// ErrTruncated, unread bytes as an error.
func finish(d *protocol.Cursor) error {
	if d.Err() != nil {
		return ErrTruncated
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("checkpoint: %d trailing bytes", n)
	}
	return nil
}
