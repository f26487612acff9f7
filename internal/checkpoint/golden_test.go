package checkpoint

import (
	"encoding/hex"
	"math"
	"testing"

	"cloudfog/internal/reputation"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// goldenState and goldenLogEntry are fixed instances of the two
// checkpoint records, covering every section of each.
func goldenState() *State {
	return &State{
		Epoch: 7,
		World: virtualworld.Snapshot{Tick: 12345, Width: 1024, Height: 768, Entities: []virtualworld.Entity{
			{ID: 1, Kind: virtualworld.KindAvatar, Owner: 7, X: 10.5, Y: -3.25, Facing: 1.5, HP: 100, State: 2, Version: 9},
			{ID: 5, Kind: virtualworld.KindNPC, Owner: -1, X: 640, Y: 480, Facing: math.NaN(), HP: -4, Version: 1<<31 + 3},
		}},
		NextID:   6,
		Sessions: []int32{-2, 7},
		AddrIDs:  []AddrID{{Addr: "127.0.0.1:9101", ID: 1}, {Addr: "127.0.0.1:9102", ID: 2}},
		Book: reputation.BookState{Lambda: 0.9, Entries: []reputation.BookEntry{
			{SupernodeID: 1, Ratings: []reputation.Rating{{Value: 0.6, Day: 1}}},
			{SupernodeID: 2, Ratings: []reputation.Rating{{Value: 0.8, Day: 0}, {Value: 0.9, Day: 1}}},
		}},
		RNG: rng.State{Seed: 42, Splits: 3, Draws: 17},
	}
}

func goldenLogEntry() *LogEntry {
	return &LogEntry{Epoch: 3, Tick: 991, NextID: 57, Deltas: []virtualworld.Delta{
		{ID: 4, Entity: virtualworld.Entity{ID: 4, Kind: virtualworld.KindAvatar, Owner: 9, X: 1.5, Y: 2.5, HP: 88, Version: 12}},
		{ID: 9, Removed: true},
		{ID: 11, Entity: virtualworld.Entity{ID: 11, Kind: virtualworld.KindNPC, Owner: -1, X: 7, Y: 8, HP: 40, State: 1, Version: 3}},
	}}
}

// goldenStateHex and goldenLogEntryHex were captured from the checkpoint
// encoders before they moved onto the wire protocol's shared world-state
// codec; they pin the checkpoint format byte for byte.
const (
	goldenStateHex    = "43464b5000010000000000000007000000000000303940900000000000004088000000000000000000020000000101000000074025000000000000c00a0000000000003ff8000000000000006402000000090000000502ffffffff4084000000000000407e0000000000007ff8000000000001fffc00800000030000000600000002fffffffe0000000700000002000e3132372e302e302e313a3931303100000001000e3132372e302e302e313a39313032000000023feccccccccccccd0000000200000001000000013fe33333333333330000000100000002000000023fe999999999999a000000003feccccccccccccd00000001000000000000002a00000000000000030000000000000011"
	goldenLogEntryHex = "000000000000000300000000000003df000000390000000300000004000000000401000000093ff8000000000000400400000000000000000000000000000058000000000c00000009010000000b000000000b02ffffffff401c0000000000004020000000000000000000000000000000280100000003"
)

func TestGoldenCheckpointBytes(t *testing.T) {
	st := goldenState()
	if got := hex.EncodeToString(st.AppendTo(nil)); got != goldenStateHex {
		t.Errorf("State.AppendTo\n  got  %s\n  want %s", got, goldenStateHex)
	}
	if n := st.EncodedSize(); n*2 != len(goldenStateHex) {
		t.Errorf("State.EncodedSize = %d, want %d", n, len(goldenStateHex)/2)
	}
	e := goldenLogEntry()
	if got := hex.EncodeToString(e.AppendTo(nil)); got != goldenLogEntryHex {
		t.Errorf("LogEntry.AppendTo\n  got  %s\n  want %s", got, goldenLogEntryHex)
	}
	if n := e.EncodedSize(); n*2 != len(goldenLogEntryHex) {
		t.Errorf("LogEntry.EncodedSize = %d, want %d", n, len(goldenLogEntryHex)/2)
	}
}
