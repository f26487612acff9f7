package protocol_test

import (
	"bytes"
	"testing"

	"cloudfog/internal/checkpoint"
	"cloudfog/internal/protocol"
	"cloudfog/internal/videocodec"
	"cloudfog/internal/virtualworld"
)

// roundTrip decodes data and re-encodes what it decoded.
type roundTrip func(data []byte) ([]byte, error)

// unmarshal adapts a value-returning decoder.
func unmarshal[M protocol.Appender](decode func([]byte) (M, error)) roundTrip {
	return func(data []byte) ([]byte, error) {
		m, err := decode(data)
		if err != nil {
			return nil, err
		}
		return m.AppendTo(nil), nil
	}
}

// decodeInto adapts a decoder that fills a caller-owned destination.
func decodeInto[M any, P interface {
	*M
	protocol.Appender
}](decode func([]byte, P) error) roundTrip {
	return func(data []byte) ([]byte, error) {
		m := P(new(M))
		if err := decode(data, m); err != nil {
			return nil, err
		}
		return m.AppendTo(nil), nil
	}
}

var fuzzEntity = virtualworld.Entity{ID: 3, Kind: virtualworld.KindNPC, Owner: -1, X: 1, Y: 2, HP: 5, Version: 7}

var fuzzDeltas = []virtualworld.Delta{{ID: 3, Entity: fuzzEntity}, {ID: 4, Removed: true}}

var fuzzSnapshot = virtualworld.Snapshot{Tick: 9, Width: 64, Height: 64, Entities: []virtualworld.Entity{fuzzEntity}}

var fuzzCandidates = []protocol.CandidateInfo{{Addr: "a:1", Load: 1, Capacity: 2, MeasuredRTTMs: -1, Score: 0.5}}

// codecs lists every decoder with a seed message for it.
var codecs = []struct {
	name string
	seed protocol.Appender
	rt   roundTrip
}{
	{"supernode-hello", protocol.SupernodeHello{Name: "f", Capacity: 2, StreamAddr: "s:1"}, unmarshal(protocol.UnmarshalSupernodeHello)},
	{"supernode-welcome", protocol.SupernodeWelcome{SupernodeID: 1, Epoch: 2, StandbyAddr: "s:1", Snapshot: fuzzSnapshot}, unmarshal(protocol.UnmarshalSupernodeWelcome)},
	{"player-join", protocol.PlayerJoin{PlayerID: 1, GameID: 2, SpawnX: 3, SpawnY: 4}, unmarshal(protocol.UnmarshalPlayerJoin)},
	{"join-reply", protocol.JoinReply{OK: true, Epoch: 1, Tick: 2, Candidates: fuzzCandidates, CloudStreamAddr: "c:1"}, unmarshal(protocol.UnmarshalJoinReply)},
	{"action", protocol.ActionMsg{Action: virtualworld.Action{Player: 1, Kind: virtualworld.ActMove, TargetX: 2}}, unmarshal(protocol.UnmarshalActionMsg)},
	{"update-batch", protocol.UpdateBatch{Epoch: 1, Tick: 2, Deltas: fuzzDeltas}, decodeInto(protocol.DecodeUpdateBatch)},
	{"player-attach", protocol.PlayerAttach{PlayerID: 1, QualityLevel: 3}, unmarshal(protocol.UnmarshalPlayerAttach)},
	{"attach-reply", protocol.AttachReply{OK: true}, unmarshal(protocol.UnmarshalAttachReply)},
	{"rate-change", protocol.RateChange{QualityLevel: 2}, unmarshal(protocol.UnmarshalRateChange)},
	{"probe-reply", protocol.ProbeReply{Available: 3}, unmarshal(protocol.UnmarshalProbeReply)},
	{"heartbeat", protocol.Heartbeat{Seq: 1}, unmarshal(protocol.UnmarshalHeartbeat)},
	{"heartbeat-ack", protocol.HeartbeatAck{Seq: 1, ReplicaTick: 2, Attached: 3}, unmarshal(protocol.UnmarshalHeartbeatAck)},
	{"candidate-update", protocol.CandidateUpdate{Candidates: fuzzCandidates, CloudStreamAddr: "c:1"}, unmarshal(protocol.UnmarshalCandidateUpdate)},
	{"qoe-report", protocol.QoEReport{PlayerID: 1, Addr: "a:1", Rating: 0.5, Stalled: true}, unmarshal(protocol.UnmarshalQoEReport)},
	{"standby-hello", protocol.StandbyHello{Addr: "s:1"}, unmarshal(protocol.UnmarshalStandbyHello)},
	{"resume", protocol.Resume{Kind: protocol.ResumePlayer, PlayerID: 1, Epoch: 2, Tick: 3}, unmarshal(protocol.UnmarshalResume)},
	{"resume-reply", protocol.ResumeReply{OK: true, HasSnapshot: true, Snapshot: fuzzSnapshot, Candidates: fuzzCandidates}, unmarshal(protocol.UnmarshalResumeReply)},
	{"datagram-request", protocol.DatagramRequest{PlayerID: 1}, unmarshal(protocol.UnmarshalDatagramRequest)},
	{"datagram-reply", protocol.DatagramReply{OK: true, Addr: "u:1", Token: 2, Epoch: 3}, unmarshal(protocol.UnmarshalDatagramReply)},
	{"interest-update", protocol.InterestUpdate{Gen: 1, CellSize: 64, Players: []int32{1}, Cells: []uint32{2, 3}}, decodeInto(protocol.DecodeInterestUpdate)},
	{"cell-batch", protocol.CellBatch{Epoch: 1, Tick: 2, Cell: 3, Keyframe: true, Deltas: fuzzDeltas}, decodeInto(protocol.DecodeCellBatch)},
	{"video-frame", &videocodec.EncodedFrame{Type: videocodec.IFrame, Width: 8, Height: 8, Quant: 1, Tick: 4, Data: []byte{1, 2}}, unmarshal(videocodec.UnmarshalFrame)},
	{"checkpoint-state", &checkpoint.State{Epoch: 1, World: fuzzSnapshot, NextID: 4, Sessions: []int32{1, 2}}, decodeInto(checkpoint.DecodeState)},
	{"checkpoint-log-entry", &checkpoint.LogEntry{Epoch: 1, Tick: 2, NextID: 3, Deltas: fuzzDeltas}, decodeInto(checkpoint.DecodeLogEntry)},
}

// FuzzDecodeRoundTrip feeds arbitrary bytes to every decoder of the wire
// protocol, the video frame and the checkpoint records. No input may
// panic a decoder, and whatever a decoder accepts must re-encode to a
// fixed point: encode→decode→encode yields the same bytes. Bytes, not
// DeepEqual, so NaN payloads compare equal.
func FuzzDecodeRoundTrip(f *testing.F) {
	for i, c := range codecs {
		f.Add(uint8(i), c.seed.AppendTo(nil))
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		c := codecs[int(kind)%len(codecs)]
		enc, err := c.rt(data)
		if err != nil {
			return
		}
		again, err := c.rt(enc)
		if err != nil {
			t.Fatalf("%s: re-encoded %x does not decode: %v", c.name, enc, err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("%s: encode→decode→encode is not a fixed point:\n  %x\n  %x", c.name, enc, again)
		}
	})
}
