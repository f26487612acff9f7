package protocol

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"cloudfog/internal/videocodec"
	"cloudfog/internal/virtualworld"
)

// goldenEntities exercise every entity field, including a negative owner
// and HP, a NaN facing and an ID above 16 bits.
var goldenEntities = []virtualworld.Entity{
	{ID: 1, Kind: virtualworld.KindAvatar, Owner: 7, X: 10.5, Y: -3.25, Facing: 1.5, HP: 100, State: 2, Version: 9},
	{ID: 5, Kind: virtualworld.KindNPC, Owner: -1, X: 640, Y: 480, Facing: math.NaN(), HP: -4, Version: 1<<31 + 3},
	{ID: 1 << 20, Kind: virtualworld.KindItem, Owner: -1, X: 0.125, Y: 1e9, State: 255, Version: 1},
}

var goldenDeltas = []virtualworld.Delta{
	{ID: 1, Entity: goldenEntities[0]},
	{ID: 3, Removed: true},
	{ID: 5, Entity: goldenEntities[1]},
	{ID: 1 << 20, Entity: goldenEntities[2]},
}

var goldenSnapshot = virtualworld.Snapshot{Tick: 12345, Width: 1024, Height: 768, Entities: goldenEntities}

var goldenCandidates = []CandidateInfo{
	{Addr: "10.0.0.1:7100", Load: 3, Capacity: 4, MeasuredRTTMs: -1, Score: 0.75},
	{Addr: "f:2", Capacity: 8, MeasuredRTTMs: 12.5, Score: math.Inf(-1)},
}

// goldenCase is one fixed message and the frame the wire format assigns
// it. A nil m is an empty payload.
type goldenCase struct {
	name string
	typ  MsgType
	m    Appender
}

// goldenCases covers every message type but the two opaque checkpoint
// carriers (their payloads are pinned in internal/checkpoint), the video
// frame and both empty payloads.
func goldenCases() []goldenCase {
	return []goldenCase{
		{"supernode-hello", MsgSupernodeHello, SupernodeHello{Name: "fog-3", Capacity: 17, StreamAddr: "127.0.0.1:9000"}},
		{"supernode-welcome", MsgSupernodeWelcome, SupernodeWelcome{SupernodeID: 42, Epoch: 3, StandbyAddr: "s:1", Snapshot: goldenSnapshot}},
		{"player-join", MsgPlayerJoin, PlayerJoin{PlayerID: -7, GameID: 3, SpawnX: 12.5, SpawnY: 700.25}},
		{"join-reply", MsgJoinReply, JoinReply{OK: true, Epoch: 2, Tick: 99, Candidates: goldenCandidates, CloudStreamAddr: "c:1", StandbyAddr: "s:1"}},
		{"join-reply-deny", MsgJoinReply, JoinReply{Reason: "full"}},
		{"action", MsgAction, ActionMsg{Action: virtualworld.Action{Player: 4, Kind: virtualworld.ActAttack, TargetX: 1.5, TargetY: -2, TargetEntity: 77, StateTag: 6}}},
		{"update-batch", MsgUpdateBatch, UpdateBatch{Epoch: 2, Tick: 100, Deltas: goldenDeltas}},
		{"update-batch-empty", MsgUpdateBatch, UpdateBatch{Epoch: 1, Tick: 3}},
		{"player-attach", MsgPlayerAttach, PlayerAttach{PlayerID: 12, QualityLevel: 4}},
		{"attach-reply", MsgAttachReply, AttachReply{OK: false, Reason: "at capacity"}},
		{"video-frame", MsgVideoFrame, &videocodec.EncodedFrame{Type: videocodec.PFrame, Width: 288, Height: 216, Quant: 3, Tick: 0x0102030405060708, Data: []byte{2, 9, 1, 0, 255, 7}}},
		{"rate-change", MsgRateChange, RateChange{QualityLevel: 2}},
		{"probe", MsgProbe, nil},
		{"probe-reply", MsgProbeReply, ProbeReply{Available: 9}},
		{"bye", MsgBye, nil},
		{"heartbeat", MsgHeartbeat, Heartbeat{Seq: 77}},
		{"heartbeat-ack", MsgHeartbeatAck, HeartbeatAck{Seq: 77, ReplicaTick: 123456, Attached: 6}},
		{"candidate-update", MsgCandidateUpdate, CandidateUpdate{Candidates: goldenCandidates, CloudStreamAddr: "c:1", StandbyAddr: "s:2"}},
		{"qoe-report", MsgQoEReport, QoEReport{PlayerID: 9, Addr: "f:2", Rating: 0.25, Stalled: true, Fallback: true}},
		{"standby-hello", MsgStandbyHello, StandbyHello{Addr: "127.0.0.1:9300"}},
		{"resume", MsgResume, Resume{Kind: ResumeSupernode, PlayerID: -1, Epoch: 4, Tick: 800, Name: "fog-1", Capacity: 6, StreamAddr: "f:1"}},
		{"resume-reply-supernode", MsgResumeReply, ResumeReply{OK: true, Discard: true, Epoch: 5, Tick: 801, SupernodeID: 3, HasSnapshot: true, Snapshot: goldenSnapshot, CloudStreamAddr: "c:2"}},
		{"resume-reply-player", MsgResumeReply, ResumeReply{OK: true, Epoch: 5, Tick: 801, Candidates: goldenCandidates, CloudStreamAddr: "c:2", StandbyAddr: "s:3"}},
		{"resume-reply-refuse", MsgResumeReply, ResumeReply{Reason: "unknown session"}},
		{"datagram-request", MsgDatagramRequest, DatagramRequest{PlayerID: 4711}},
		{"datagram-reply", MsgDatagramReply, DatagramReply{OK: true, Addr: "127.0.0.1:9999", Token: 0xfeedface, Epoch: 3}},
		{"interest-update", MsgInterestUpdate, InterestUpdate{Gen: 8, CellSize: 64, Players: []int32{1, -2, 3}, Cells: []uint32{0, 17, 1 << 30}}},
		{"cell-batch", MsgCellBatch, CellBatch{Epoch: 2, Tick: 100, Cell: 5, Deltas: goldenDeltas}},
		{"cell-batch-keyframe", MsgCellBatch, CellBatch{Epoch: 2, Tick: 101, Cell: virtualworld.CellNone, Keyframe: true, Deltas: goldenDeltas[2:]}},
	}
}

// goldenFrames maps each golden case to its complete frame (5-byte header
// plus payload). The hex was captured from the codec before its encoders
// were unified into AppendTo — the per-message Marshal methods framed by
// the two-Write WriteMessage — so it pins the wire format byte for byte.
var goldenFrames = map[string]string{
	"supernode-hello":        "00000019010005666f672d330011000e3132372e302e302e313a39303030",
	"supernode-welcome":      "000000a5020000002a00000000000000030003733a31000000000000303940900000000000004088000000000000000000030000000101000000074025000000000000c00a0000000000003ff8000000000000006402000000090000000502ffffffff4084000000000000407e0000000000007ff8000000000001fffc00800000030010000003ffffffff3fc000000000000041cdcd650000000000000000000000000000ff00000001",
	"player-join":            "0000001503fffffff90340290000000000004085e20000000000",
	"join-reply":             "0000005b0401000000000000000200000000000000630002000d31302e302e302e313a3731303000030004bff00000000000003fe80000000000000003663a32000000084029000000000000fff00000000000000003633a310003733a310000",
	"join-reply-deny":        "0000001d040000000000000000000000000000000000000000000000000466756c6c",
	"action":                 "0000001a0500000004023ff8000000000000c0000000000000000000004d06",
	"update-batch":           "000000a006000000000000000200000000000000640000000400000001000000000101000000074025000000000000c00a0000000000003ff800000000000000640200000009000000030100000005000000000502ffffffff4084000000000000407e0000000000007ff8000000000001fffc008000000300100000000010000003ffffffff3fc000000000000041cdcd650000000000000000000000000000ff00000001",
	"update-batch-empty":     "00000014060000000000000001000000000000000300000000",
	"player-attach":          "00000005070000000c04",
	"attach-reply":           "0000000e0800000b6174206361706163697479",
	"video-frame":            "00000018090203012000d801020304050607080000000602090100ff07",
	"rate-change":            "000000010a02",
	"probe":                  "000000000b",
	"probe-reply":            "000000020c0009",
	"bye":                    "000000000d",
	"heartbeat":              "000000040e0000004d",
	"heartbeat-ack":          "0000000e0f0000004d000000000001e2400006",
	"candidate-update":       "00000048100002000d31302e302e302e313a3731303000030004bff00000000000003fe80000000000000003663a32000000084029000000000000fff00000000000000003633a310003733a32",
	"qoe-report":             "0000001211000000090003663a323fd000000000000003",
	"standby-hello":          "0000001012000e3132372e302e302e313a39333030",
	"resume":                 "000000231501ffffffff000000000000000400000000000003200005666f672d3100060003663a31",
	"resume-reply-supernode": "000000b416070000000000000005000000000000032100000003000000000000303940900000000000004088000000000000000000030000000101000000074025000000000000c00a0000000000003ff8000000000000006402000000090000000502ffffffff4084000000000000407e0000000000007ff8000000000001fffc00800000030010000003ffffffff3fc000000000000041cdcd650000000000000000000000000000ff0000000100000003633a3200000000",
	"resume-reply-player":    "0000005f160100000000000000050000000000000321000000000002000d31302e302e302e313a3731303000030004bff00000000000003fe80000000000000003663a32000000084029000000000000fff00000000000000003633a320003733a330000",
	"resume-reply-refuse":    "0000002c16000000000000000000000000000000000000000000000000000000000f756e6b6e6f776e2073657373696f6e",
	"datagram-request":       "000000041700001267",
	"datagram-reply":         "000000231801000e3132372e302e302e313a3939393900000000feedface00000000000000030000",
	"interest-update":        "0000002c190000000840500000000000000000000300000001fffffffe0000000300000003000000000000001140000000",
	"cell-batch":             "000000a51a0000000000000002000000000000006400000005000000000400000001000000000101000000074025000000000000c00a0000000000003ff800000000000000640200000009000000030100000005000000000502ffffffff4084000000000000407e0000000000007ff8000000000001fffc008000000300100000000010000003ffffffff3fc000000000000041cdcd650000000000000000000000000000ff00000001",
	"cell-batch-keyframe":    "000000731a00000000000000020000000000000065ffffffff010000000200000005000000000502ffffffff4084000000000000407e0000000000007ff8000000000001fffc008000000300100000000010000003ffffffff3fc000000000000041cdcd650000000000000000000000000000ff00000001",
}

func TestGoldenWireBytes(t *testing.T) {
	seen := map[MsgType]bool{}
	for _, c := range goldenCases() {
		seen[c.typ] = true
		want, ok := goldenFrames[c.name]
		if !ok {
			t.Fatalf("%s: no golden frame", c.name)
		}
		framed, err := AppendMessage(nil, c.typ, c.m)
		if err != nil {
			t.Fatalf("%s: AppendMessage: %v", c.name, err)
		}
		if got := hex.EncodeToString(framed); got != want {
			t.Errorf("%s: AppendMessage\n  got  %s\n  want %s", c.name, got, want)
		}
		var w bytes.Buffer
		if err := WriteMessage(&w, c.typ, c.m); err != nil {
			t.Fatalf("%s: WriteMessage: %v", c.name, err)
		}
		if !bytes.Equal(w.Bytes(), framed) {
			t.Errorf("%s: WriteMessage %x differs from AppendMessage %x", c.name, w.Bytes(), framed)
		}
		if c.m == nil {
			if len(framed) != HeaderLen {
				t.Errorf("%s: empty payload framed to %d bytes", c.name, len(framed))
			}
			continue
		}
		// Appending onto a prefix leaves the prefix intact.
		prefix := []byte{0xAA, 0xBB}
		out := c.m.AppendTo(prefix)
		if !bytes.Equal(out[:2], prefix) || !bytes.Equal(out[2:], framed[HeaderLen:]) {
			t.Errorf("%s: AppendTo onto a prefix = %x", c.name, out)
		}
	}
	for typ := MsgSupernodeHello; typ <= MsgCellBatch; typ++ {
		if !seen[typ] && typ != MsgCheckpoint && typ != MsgLogEntry {
			t.Errorf("no golden case for %v", typ)
		}
	}
}
