// Package protocol defines the wire protocol of the CloudFog prototype:
// the messages exchanged between the cloud (authoritative game state), the
// fog (supernodes rendering and streaming video), and players (thin
// clients), exactly the three-tier interaction of Fig. 1 of the paper:
//
//	player -> cloud      user input (world actions)
//	player -> supernode  packets of view-dependent work, rate changes
//	cloud  -> supernode  world update stream (the Λ bandwidth)
//	supernode -> player  encoded game video
//
// Messages are length-prefixed binary frames:
//
//	uint32 payload length | uint8 message type | payload
//
// Encoding is hand-rolled big-endian binary (stdlib only, no reflection on
// the hot paths). Every message type has one encoder, AppendTo, and one
// decoder (Unmarshal*, or Decode* reusing the destination's slices), with
// a round-trip test and a golden wire-bytes test. The world state — an
// entity, a delta list, a snapshot — has one encoding (worldstate.go),
// shared by the update stream, the welcome and resume messages, and the
// checkpoint log.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"cloudfog/internal/virtualworld"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Message types.
const (
	// MsgSupernodeHello registers a supernode with the cloud.
	MsgSupernodeHello MsgType = iota + 1
	// MsgSupernodeWelcome acknowledges registration with a world seed.
	MsgSupernodeWelcome
	// MsgPlayerJoin asks the cloud to admit a player.
	MsgPlayerJoin
	// MsgJoinReply returns the player's serving supernode address.
	MsgJoinReply
	// MsgAction carries a player input to the cloud.
	MsgAction
	// MsgUpdateBatch is the full-world form of the update stream. No tier
	// sends it (the cloud's tick stream is MsgCellBatch only); it stays
	// because cfbench's frame peeker names it.
	MsgUpdateBatch
	// MsgPlayerAttach attaches a player session to a supernode.
	MsgPlayerAttach
	// MsgAttachReply acknowledges the attach.
	MsgAttachReply
	// MsgVideoFrame carries one encoded video frame to a player.
	MsgVideoFrame
	// MsgRateChange asks the supernode for a different quality level —
	// the receiver-driven adaptation signal of §3.3.
	MsgRateChange
	// MsgProbe asks a supernode whether it has available capacity.
	MsgProbe
	// MsgProbeReply answers a capacity probe.
	MsgProbeReply
	// MsgBye ends a session gracefully.
	MsgBye
	// MsgHeartbeat is the cloud's liveness ping to a supernode. Supernodes
	// are contributed desktops (§3.2.2): the cloud must detect the ones
	// that silently vanish and evict them.
	MsgHeartbeat
	// MsgHeartbeatAck answers a heartbeat with the supernode's replica
	// progress, doubling as a cheap health report.
	MsgHeartbeatAck
	// MsgCandidateUpdate pushes a refreshed failover ladder to a player
	// when the supernode set changes (registration, eviction, departure)
	// or the ranking shifts, so migrations never target stale addresses.
	MsgCandidateUpdate
	// MsgQoEReport carries a player's rating of a supernode to the cloud —
	// the feedback that drives the live reputation book behind the ranked
	// candidate ladder (§3.2's rating step, reported upward instead of
	// kept private because the cloud builds the ladder).
	MsgQoEReport
	// MsgStandbyHello registers a warm standby with the primary cloud; the
	// primary answers with a full checkpoint and then streams the per-tick
	// delta log (DESIGN.md §12).
	MsgStandbyHello
	// MsgCheckpoint carries one encoded internal/checkpoint State to the
	// standby. The payload is opaque to this package — the checkpoint
	// format is versioned independently of the wire protocol.
	MsgCheckpoint
	// MsgLogEntry carries one encoded per-tick delta-log entry to the
	// standby (opaque payload, like MsgCheckpoint). Sent every tick even
	// when empty: the stream doubles as the primary's liveness signal.
	MsgLogEntry
	// MsgResume asks a (possibly just-promoted) cloud to continue an
	// existing supernode or player session after the primary was lost,
	// instead of a full rejoin.
	MsgResume
	// MsgResumeReply answers a resume with the authoritative epoch/tick
	// and whatever the resuming peer needs to reconverge.
	MsgResumeReply
	// MsgDatagramRequest asks the serving node, on an attached video
	// session, to move the video stream to the unreliable datagram
	// transport (-transport udp). Control traffic stays on this stream.
	MsgDatagramRequest
	// MsgDatagramReply answers with the node's datagram endpoint and the
	// session token the player's hello datagram must echo. OK=false means
	// the node does not offer datagram video and TCP streaming continues.
	MsgDatagramReply
	// MsgInterestUpdate reports a supernode's area-of-interest footprint
	// to the cloud: the grid cells its attached players' viewports (plus
	// hysteresis margin) cover. The cloud then narrows that supernode's
	// update stream to the subscribed cells. A supernode that never sends
	// one stays subscribed to every cell (DESIGN.md §14).
	MsgInterestUpdate
	// MsgCellBatch carries one tick's deltas for one grid cell to a
	// subscribed supernode — the cloud's only update stream. A keyframe
	// cell batch carries the cell's complete
	// entity population (sent when a supernode gains the cell); the
	// CellNone sentinel carries position-less deltas (removals, session
	// events) broadcast to every subscriber.
	MsgCellBatch
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgSupernodeHello:
		return "supernode-hello"
	case MsgSupernodeWelcome:
		return "supernode-welcome"
	case MsgPlayerJoin:
		return "player-join"
	case MsgJoinReply:
		return "join-reply"
	case MsgAction:
		return "action"
	case MsgUpdateBatch:
		return "update-batch"
	case MsgPlayerAttach:
		return "player-attach"
	case MsgAttachReply:
		return "attach-reply"
	case MsgVideoFrame:
		return "video-frame"
	case MsgRateChange:
		return "rate-change"
	case MsgProbe:
		return "probe"
	case MsgProbeReply:
		return "probe-reply"
	case MsgBye:
		return "bye"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgHeartbeatAck:
		return "heartbeat-ack"
	case MsgCandidateUpdate:
		return "candidate-update"
	case MsgQoEReport:
		return "qoe-report"
	case MsgStandbyHello:
		return "standby-hello"
	case MsgCheckpoint:
		return "checkpoint"
	case MsgLogEntry:
		return "log-entry"
	case MsgResume:
		return "resume"
	case MsgResumeReply:
		return "resume-reply"
	case MsgDatagramRequest:
		return "datagram-request"
	case MsgDatagramReply:
		return "datagram-reply"
	case MsgInterestUpdate:
		return "interest-update"
	case MsgCellBatch:
		return "cell-batch"
	default:
		return "unknown"
	}
}

// Protocol limits.
const (
	// MaxPayload bounds a single message (16 MiB), protecting receivers
	// from hostile length prefixes.
	MaxPayload = 16 << 20
	headerLen  = 5
)

// Errors.
var (
	ErrTooLarge  = errors.New("protocol: payload exceeds MaxPayload")
	ErrTruncated = errors.New("protocol: truncated payload")
)

// WriteMessage frames m and sends it with a single Write; a nil m sends an
// empty payload (MsgBye, MsgProbe). It is the one-shot path for control
// messages and handshakes: the frame is built in a fresh slice, so a large
// message such as a supernode welcome never parks its capacity in the
// GetBuffer pool. Per-tick and per-frame paths append into a reused
// buffer with AppendMessage instead.
func WriteMessage(w io.Writer, t MsgType, m Appender) error {
	buf, err := AppendMessage(nil, t, m)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write message: %w", err)
	}
	return nil
}

// --- binary helpers ---------------------------------------------------------

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) str(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// Cursor is the bounds-checked big-endian reader behind every decoder in
// the module: the wire messages here and the checkpoint records in
// internal/checkpoint. The first short read latches ErrTruncated; later
// reads return zero values, so a decoder reads its fields straight
// through and checks the error once.
type Cursor struct {
	buf []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of buf.
func NewCursor(buf []byte) Cursor { return Cursor{buf: buf} }

// Err returns ErrTruncated once a read has run past the end, else nil.
func (r *Cursor) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Cursor) Remaining() int { return len(r.buf) - r.off }

func (r *Cursor) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Cursor) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U16 reads a big-endian uint16.
func (r *Cursor) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// U32 reads a big-endian uint32.
func (r *Cursor) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Cursor) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I32 reads a big-endian int32.
func (r *Cursor) I32() int32 { return int32(r.U32()) }

// F64 reads a big-endian IEEE 754 float64.
func (r *Cursor) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a uint16 length-prefixed string (copied out of the buffer).
func (r *Cursor) Str() string {
	n := int(r.U16())
	if !r.need(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

func (r *Cursor) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("protocol: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// --- messages ---------------------------------------------------------------

// SupernodeHello registers a supernode.
type SupernodeHello struct {
	// Name is a human-readable supernode identifier.
	Name string
	// Capacity is the advertised max concurrent players.
	Capacity int
	// StreamAddr is where players should connect for video.
	StreamAddr string
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m SupernodeHello) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.str(m.Name)
	w.u16(uint16(m.Capacity))
	w.str(m.StreamAddr)
	return w.buf
}

// UnmarshalSupernodeHello decodes the message.
func UnmarshalSupernodeHello(buf []byte) (SupernodeHello, error) {
	r := NewCursor(buf)
	m := SupernodeHello{Name: r.Str(), Capacity: int(r.U16())}
	m.StreamAddr = r.Str()
	return m, r.finish()
}

// SupernodeWelcome seeds a newly-registered supernode's replica.
type SupernodeWelcome struct {
	// SupernodeID is the cloud-assigned identifier.
	SupernodeID uint32
	// Epoch is the cloud's authority epoch; the supernode presents it when
	// resuming after a failover.
	Epoch uint64
	// StandbyAddr is the warm standby's control endpoint ("" when none).
	StandbyAddr string
	// Snapshot is the full world state to seed from.
	Snapshot virtualworld.Snapshot
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m SupernodeWelcome) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u32(m.SupernodeID)
	w.u64(m.Epoch)
	w.str(m.StandbyAddr)
	return AppendSnapshot(w.buf, &m.Snapshot)
}

// UnmarshalSupernodeWelcome decodes the message.
func UnmarshalSupernodeWelcome(buf []byte) (SupernodeWelcome, error) {
	r := NewCursor(buf)
	m := SupernodeWelcome{SupernodeID: r.U32(), Epoch: r.U64(), StandbyAddr: r.Str()}
	n := r.SnapshotHeader(&m.Snapshot)
	if n > MaxPayload/EntityWireBytes {
		return m, ErrTooLarge
	}
	m.Snapshot.Entities = r.Entities(m.Snapshot.Entities, n)
	return m, r.finish()
}

// PlayerJoin admits a player to the game.
type PlayerJoin struct {
	// PlayerID identifies the player.
	PlayerID int32
	// GameID selects the title (Table 2 catalog).
	GameID uint8
	// SpawnX, SpawnY is the requested spawn position.
	SpawnX, SpawnY float64
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m PlayerJoin) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.i32(m.PlayerID)
	w.u8(m.GameID)
	w.f64(m.SpawnX)
	w.f64(m.SpawnY)
	return w.buf
}

// UnmarshalPlayerJoin decodes the message.
func UnmarshalPlayerJoin(buf []byte) (PlayerJoin, error) {
	r := NewCursor(buf)
	m := PlayerJoin{PlayerID: r.I32(), GameID: r.U8(), SpawnX: r.F64(), SpawnY: r.F64()}
	return m, r.finish()
}

// CandidateInfo describes one candidate supernode on the wire: everything
// a player needs to run the §3.2 selection pipeline client-side instead of
// trusting list position.
type CandidateInfo struct {
	// Addr is the supernode's streaming address.
	Addr string
	// Load is the supernode's player count as of its last heartbeat ack.
	Load uint16
	// Capacity is the supernode's advertised max concurrent players.
	Capacity uint16
	// MeasuredRTTMs is the round trip to the candidate; negative when the
	// sender has no measurement (the cloud cannot ping on the player's
	// behalf — players fill this from their own probes).
	MeasuredRTTMs float64
	// Score is the candidate's reputation score in the sender's book.
	Score float64
}

func putCandidateInfo(w *writer, c CandidateInfo) {
	w.str(c.Addr)
	w.u16(c.Load)
	w.u16(c.Capacity)
	w.f64(c.MeasuredRTTMs)
	w.f64(c.Score)
}

func getCandidateInfo(r *Cursor) CandidateInfo {
	return CandidateInfo{
		Addr:          r.Str(),
		Load:          r.U16(),
		Capacity:      r.U16(),
		MeasuredRTTMs: r.F64(),
		Score:         r.F64(),
	}
}

// JoinReply tells the player where to stream from.
type JoinReply struct {
	// OK reports admission.
	OK bool
	// Epoch is the admitting cloud's authority epoch; the player presents
	// it when resuming after a failover (DESIGN.md §12).
	Epoch uint64
	// Tick is the world tick at admission.
	Tick uint64
	// Candidates are the candidate supernodes, ranked best first — the
	// cloud's candidate list of §3.2, with the load/capacity/score data
	// the player re-ranks by.
	Candidates []CandidateInfo
	// CloudStreamAddr is the cloud's own streaming endpoint, the fallback
	// for players that no supernode accepts ("normal nodes that cannot
	// find nearby supernodes directly connect to the cloud").
	CloudStreamAddr string
	// StandbyAddr is the warm standby's control endpoint, where sessions
	// resume if this cloud dies ("" when no standby is attached).
	StandbyAddr string
	// Reason explains a rejection.
	Reason string
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m JoinReply) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	if m.OK {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u64(m.Epoch)
	w.u64(m.Tick)
	w.u16(uint16(len(m.Candidates)))
	for _, c := range m.Candidates {
		putCandidateInfo(&w, c)
	}
	w.str(m.CloudStreamAddr)
	w.str(m.StandbyAddr)
	w.str(m.Reason)
	return w.buf
}

// Marshal returns AppendTo(nil). It stays for the cfbench stream-peek
// test, which frames this reply from a pre-encoded payload; new code
// frames with AppendMessage or WriteMessage.
func (m JoinReply) Marshal() []byte { return m.AppendTo(nil) }

// UnmarshalJoinReply decodes the message.
func UnmarshalJoinReply(buf []byte) (JoinReply, error) {
	r := NewCursor(buf)
	m := JoinReply{OK: r.U8() == 1, Epoch: r.U64(), Tick: r.U64()}
	n := int(r.U16())
	for i := 0; i < n && r.err == nil; i++ {
		m.Candidates = append(m.Candidates, getCandidateInfo(&r))
	}
	m.CloudStreamAddr = r.Str()
	m.StandbyAddr = r.Str()
	m.Reason = r.Str()
	return m, r.finish()
}

// ActionMsg carries one player input.
type ActionMsg struct {
	// Action is the world action.
	Action virtualworld.Action
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m ActionMsg) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.i32(int32(m.Action.Player))
	w.u8(uint8(m.Action.Kind))
	w.f64(m.Action.TargetX)
	w.f64(m.Action.TargetY)
	w.u32(uint32(m.Action.TargetEntity))
	w.u8(m.Action.StateTag)
	return w.buf
}

// UnmarshalActionMsg decodes the message.
func UnmarshalActionMsg(buf []byte) (ActionMsg, error) {
	r := NewCursor(buf)
	m := ActionMsg{Action: virtualworld.Action{
		Player:       int(r.I32()),
		Kind:         virtualworld.ActionKind(r.U8()),
		TargetX:      r.F64(),
		TargetY:      r.F64(),
		TargetEntity: virtualworld.EntityID(r.U32()),
		StateTag:     r.U8(),
	}}
	return m, r.finish()
}

// UpdateBatch is one tick's whole delta list, the full-world form of the
// Λ update stream. No tier sends it (the stream is CellBatch only); it
// stays because cfbench's frame peeker and its test name it.
type UpdateBatch struct {
	// Epoch is the authority epoch of the sending cloud. A supernode that
	// sees the epoch advance knows a standby was promoted and its replica
	// may hold state the new authority never committed.
	Epoch uint64
	// Tick is the world tick the deltas belong to.
	Tick uint64
	// Deltas are the changed entities.
	Deltas []virtualworld.Delta
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m UpdateBatch) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u64(m.Epoch)
	w.u64(m.Tick)
	return AppendDeltas(w.buf, m.Deltas)
}

// DecodeUpdateBatch decodes into m, reusing m.Deltas' capacity — the
// allocation-free decode for the supernode's per-tick apply loop. On error
// m holds partially decoded data and must not be used.
func DecodeUpdateBatch(buf []byte, m *UpdateBatch) error {
	r := NewCursor(buf)
	m.Epoch = r.U64()
	m.Tick = r.U64()
	m.Deltas = m.Deltas[:0]
	n := int(r.U32())
	if n > MaxPayload/5 {
		return ErrTooLarge
	}
	m.Deltas = r.Deltas(m.Deltas, n)
	return r.finish()
}

// SizeBits returns the encoded size of the batch in bits (Λ accounting),
// computed arithmetically — no allocation, no throwaway encode.
func (m UpdateBatch) SizeBits() int { return m.EncodedSize() * 8 }

// EncodedSize returns the exact AppendTo length in bytes.
func (m UpdateBatch) EncodedSize() int {
	return 8 + 8 + DeltasSize(m.Deltas) // epoch + tick + delta list
}

// PlayerAttach attaches a player's video session to a supernode.
type PlayerAttach struct {
	// PlayerID identifies the player.
	PlayerID int32
	// QualityLevel is the initial Table 2 quality level (1..5).
	QualityLevel uint8
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m PlayerAttach) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.i32(m.PlayerID)
	w.u8(m.QualityLevel)
	return w.buf
}

// UnmarshalPlayerAttach decodes the message.
func UnmarshalPlayerAttach(buf []byte) (PlayerAttach, error) {
	r := NewCursor(buf)
	m := PlayerAttach{PlayerID: r.I32(), QualityLevel: r.U8()}
	return m, r.finish()
}

// AttachReply acknowledges a video attach.
type AttachReply struct {
	// OK reports acceptance (false when the supernode is at capacity —
	// the sequential capacity probing of §3.2.2 moves on).
	OK bool
	// Reason explains a rejection.
	Reason string
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m AttachReply) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	if m.OK {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.str(m.Reason)
	return w.buf
}

// Marshal returns AppendTo(nil). It stays for the cfbench stream-peek
// test, which frames this reply from a pre-encoded payload; new code
// frames with AppendMessage or WriteMessage.
func (m AttachReply) Marshal() []byte { return m.AppendTo(nil) }

// UnmarshalAttachReply decodes the message.
func UnmarshalAttachReply(buf []byte) (AttachReply, error) {
	r := NewCursor(buf)
	m := AttachReply{OK: r.U8() == 1}
	m.Reason = r.Str()
	return m, r.finish()
}

// RateChange is the receiver-driven quality switch.
type RateChange struct {
	// QualityLevel is the requested Table 2 level (1..5).
	QualityLevel uint8
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m RateChange) AppendTo(buf []byte) []byte { return append(buf, m.QualityLevel) }

// UnmarshalRateChange decodes the message.
func UnmarshalRateChange(buf []byte) (RateChange, error) {
	r := NewCursor(buf)
	m := RateChange{QualityLevel: r.U8()}
	return m, r.finish()
}

// Heartbeat is the cloud's liveness ping.
type Heartbeat struct {
	// Seq is the monotonically increasing heartbeat sequence number.
	Seq uint32
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m Heartbeat) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u32(m.Seq)
	return w.buf
}

// UnmarshalHeartbeat decodes the message.
func UnmarshalHeartbeat(buf []byte) (Heartbeat, error) {
	r := NewCursor(buf)
	m := Heartbeat{Seq: r.U32()}
	return m, r.finish()
}

// HeartbeatAck answers a heartbeat.
type HeartbeatAck struct {
	// Seq echoes the heartbeat sequence number being answered.
	Seq uint32
	// ReplicaTick is the supernode's latest applied world tick, letting
	// the cloud spot replicas that are alive but falling behind.
	ReplicaTick uint64
	// Attached is the supernode's current player count.
	Attached uint16
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m HeartbeatAck) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u32(m.Seq)
	w.u64(m.ReplicaTick)
	w.u16(m.Attached)
	return w.buf
}

// UnmarshalHeartbeatAck decodes the message.
func UnmarshalHeartbeatAck(buf []byte) (HeartbeatAck, error) {
	r := NewCursor(buf)
	m := HeartbeatAck{Seq: r.U32(), ReplicaTick: r.U64(), Attached: r.U16()}
	return m, r.finish()
}

// CandidateUpdate refreshes a player's failover ladder after the supernode
// set or its ranking changes. Semantically it is the live-update
// counterpart of the JoinReply candidate list (§3.2.2 churn handling).
type CandidateUpdate struct {
	// Candidates are the surviving candidate supernodes, ranked best
	// first.
	Candidates []CandidateInfo
	// CloudStreamAddr is the cloud's own fallback streaming endpoint.
	CloudStreamAddr string
	// StandbyAddr is the warm standby's control endpoint ("" when none),
	// refreshed so players always know where to resume.
	StandbyAddr string
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m CandidateUpdate) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u16(uint16(len(m.Candidates)))
	for _, c := range m.Candidates {
		putCandidateInfo(&w, c)
	}
	w.str(m.CloudStreamAddr)
	w.str(m.StandbyAddr)
	return w.buf
}

// UnmarshalCandidateUpdate decodes the message.
func UnmarshalCandidateUpdate(buf []byte) (CandidateUpdate, error) {
	r := NewCursor(buf)
	var m CandidateUpdate
	n := int(r.U16())
	for i := 0; i < n && r.err == nil; i++ {
		m.Candidates = append(m.Candidates, getCandidateInfo(&r))
	}
	m.CloudStreamAddr = r.Str()
	m.StandbyAddr = r.Str()
	return m, r.finish()
}

// QoEReport is a player's rating of a supernode, sent to the cloud on the
// control connection. Healthy sessions report periodically with high
// ratings; a stall or a forced fallback reports immediately with rating 0,
// demoting the supernode in every player's next ladder.
type QoEReport struct {
	// PlayerID identifies the reporting player (must match the control
	// connection's admitted player).
	PlayerID int32
	// Addr is the stream address of the supernode being rated.
	Addr string
	// Rating is the session-quality rating in [0, 1] (playback
	// continuity, per §3.2's rating rule).
	Rating float64
	// Stalled marks a report triggered by a stall/migration rather than a
	// periodic checkpoint.
	Stalled bool
	// Fallback marks that the failure drove the player onto the cloud's
	// own stream — the expensive outcome the fog tier exists to avoid.
	Fallback bool
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m QoEReport) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.i32(m.PlayerID)
	w.str(m.Addr)
	w.f64(m.Rating)
	var flags uint8
	if m.Stalled {
		flags |= 1
	}
	if m.Fallback {
		flags |= 2
	}
	w.u8(flags)
	return w.buf
}

// UnmarshalQoEReport decodes the message.
func UnmarshalQoEReport(buf []byte) (QoEReport, error) {
	r := NewCursor(buf)
	m := QoEReport{PlayerID: r.I32(), Addr: r.Str(), Rating: r.F64()}
	flags := r.U8()
	m.Stalled = flags&1 != 0
	m.Fallback = flags&2 != 0
	return m, r.finish()
}

// ProbeReply answers a capacity probe.
type ProbeReply struct {
	// Available is the number of free player slots.
	Available int
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m ProbeReply) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u16(uint16(m.Available))
	return w.buf
}

// UnmarshalProbeReply decodes the message.
func UnmarshalProbeReply(buf []byte) (ProbeReply, error) {
	r := NewCursor(buf)
	m := ProbeReply{Available: int(r.U16())}
	return m, r.finish()
}

// StandbyHello registers a warm standby with the primary. The primary
// replies with a MsgCheckpoint (full state) and then streams MsgLogEntry
// every tick; supernodes and players learn Addr through welcome/join/
// candidate messages so they know where to resume.
type StandbyHello struct {
	// Addr is the standby's own control endpoint (where it will serve
	// resumption after promotion).
	Addr string
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m StandbyHello) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.str(m.Addr)
	return w.buf
}

// UnmarshalStandbyHello decodes the message.
func UnmarshalStandbyHello(buf []byte) (StandbyHello, error) {
	r := NewCursor(buf)
	m := StandbyHello{Addr: r.Str()}
	return m, r.finish()
}

// Resume session kinds.
const (
	// ResumeSupernode resumes a supernode's cloud link.
	ResumeSupernode uint8 = 1
	// ResumePlayer resumes a player's control connection.
	ResumePlayer uint8 = 2
)

// Resume asks a cloud (typically a just-promoted standby) to continue an
// existing session. The presented epoch/tick let the authority decide
// whether the peer's retained state is a valid prefix of the restored
// history or must be discarded (DESIGN.md §12 epoch rules).
type Resume struct {
	// Kind is ResumeSupernode or ResumePlayer.
	Kind uint8
	// PlayerID identifies the resuming player (ResumePlayer only).
	PlayerID int32
	// Epoch is the last authority epoch the peer was attached to.
	Epoch uint64
	// Tick is the last authoritative tick the peer observed.
	Tick uint64
	// Name is the supernode's identifier (ResumeSupernode only).
	Name string
	// Capacity is the supernode's advertised capacity (ResumeSupernode
	// only).
	Capacity int
	// StreamAddr is the supernode's player-facing address (ResumeSupernode
	// only).
	StreamAddr string
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m Resume) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u8(m.Kind)
	w.i32(m.PlayerID)
	w.u64(m.Epoch)
	w.u64(m.Tick)
	w.str(m.Name)
	w.u16(uint16(m.Capacity))
	w.str(m.StreamAddr)
	return w.buf
}

// UnmarshalResume decodes the message.
func UnmarshalResume(buf []byte) (Resume, error) {
	r := NewCursor(buf)
	m := Resume{Kind: r.U8(), PlayerID: r.I32(), Epoch: r.U64(), Tick: r.U64()}
	m.Name = r.Str()
	m.Capacity = int(r.U16())
	m.StreamAddr = r.Str()
	return m, r.finish()
}

// ResumeReply answers a Resume. For supernodes it carries a fresh replica
// seed (replicas may hold ticks the restored history never committed, so
// they always reseed); for players it carries the refreshed failover
// ladder. A refused resume (OK=false) means the authority does not know
// the session — the peer falls back to a full join.
type ResumeReply struct {
	// OK reports acceptance.
	OK bool
	// Discard tells the peer its retained state ran ahead of the restored
	// history (it observed ticks from the dead primary that the new
	// authority never committed) and any locally buffered derived state
	// must be dropped rather than replayed.
	Discard bool
	// Epoch is the answering cloud's authority epoch.
	Epoch uint64
	// Tick is the current authoritative tick.
	Tick uint64
	// SupernodeID is the (re-)assigned supernode ID (ResumeSupernode only).
	SupernodeID uint32
	// HasSnapshot marks that Snapshot is present (ResumeSupernode only).
	HasSnapshot bool
	// Snapshot reseeds the supernode's replica.
	Snapshot virtualworld.Snapshot
	// Candidates is the refreshed failover ladder (ResumePlayer only).
	Candidates []CandidateInfo
	// CloudStreamAddr is the answering cloud's fallback stream endpoint.
	CloudStreamAddr string
	// StandbyAddr is the next standby's endpoint ("" when none yet).
	StandbyAddr string
	// Reason explains a refusal.
	Reason string
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m ResumeReply) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	var flags uint8
	if m.OK {
		flags |= 1
	}
	if m.Discard {
		flags |= 2
	}
	if m.HasSnapshot {
		flags |= 4
	}
	w.u8(flags)
	w.u64(m.Epoch)
	w.u64(m.Tick)
	w.u32(m.SupernodeID)
	if m.HasSnapshot {
		w.buf = AppendSnapshot(w.buf, &m.Snapshot)
	}
	w.u16(uint16(len(m.Candidates)))
	for _, c := range m.Candidates {
		putCandidateInfo(&w, c)
	}
	w.str(m.CloudStreamAddr)
	w.str(m.StandbyAddr)
	w.str(m.Reason)
	return w.buf
}

// UnmarshalResumeReply decodes the message.
func UnmarshalResumeReply(buf []byte) (ResumeReply, error) {
	r := NewCursor(buf)
	var m ResumeReply
	flags := r.U8()
	m.OK = flags&1 != 0
	m.Discard = flags&2 != 0
	m.HasSnapshot = flags&4 != 0
	m.Epoch = r.U64()
	m.Tick = r.U64()
	m.SupernodeID = r.U32()
	if m.HasSnapshot {
		n := r.SnapshotHeader(&m.Snapshot)
		if n > MaxPayload/EntityWireBytes {
			return m, ErrTooLarge
		}
		m.Snapshot.Entities = r.Entities(m.Snapshot.Entities, n)
	}
	nc := int(r.U16())
	for i := 0; i < nc && r.err == nil; i++ {
		m.Candidates = append(m.Candidates, getCandidateInfo(&r))
	}
	m.CloudStreamAddr = r.Str()
	m.StandbyAddr = r.Str()
	m.Reason = r.Str()
	return m, r.finish()
}

// DatagramRequest asks the serving node to move the attached video
// session's frames onto the unreliable datagram transport.
type DatagramRequest struct {
	// PlayerID must match the attached player (the session's owner).
	PlayerID int32
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m DatagramRequest) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.i32(m.PlayerID)
	return w.buf
}

// UnmarshalDatagramRequest decodes the message.
func UnmarshalDatagramRequest(buf []byte) (DatagramRequest, error) {
	r := NewCursor(buf)
	m := DatagramRequest{PlayerID: r.I32()}
	return m, r.finish()
}

// DatagramReply answers a DatagramRequest. When OK, Addr is the node's
// datagram endpoint, Token identifies the session (the player's hello
// datagram and every frame header echo it), and Epoch stamps the stream's
// authority epoch. When !OK the session keeps streaming over TCP.
type DatagramReply struct {
	// OK reports whether datagram video is offered.
	OK bool
	// Addr is the node's datagram ("udp host:port") endpoint.
	Addr string
	// Token is the session token frames and hellos carry.
	Token uint64
	// Epoch is the authority epoch the frame headers will be stamped with.
	Epoch uint64
	// Reason explains a refusal.
	Reason string
}

// AppendTo appends the encoded message to buf and returns the extended
// slice; with enough capacity it does not allocate.
func (m DatagramReply) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	if m.OK {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.str(m.Addr)
	w.u64(m.Token)
	w.u64(m.Epoch)
	w.str(m.Reason)
	return w.buf
}

// UnmarshalDatagramReply decodes the message.
func UnmarshalDatagramReply(buf []byte) (DatagramReply, error) {
	r := NewCursor(buf)
	m := DatagramReply{OK: r.U8() == 1}
	m.Addr = r.Str()
	m.Token = r.U64()
	m.Epoch = r.U64()
	m.Reason = r.Str()
	return m, r.finish()
}
