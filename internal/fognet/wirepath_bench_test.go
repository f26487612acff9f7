package fognet

import (
	"io"
	"testing"

	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/virtualworld"
)

// fanoutBatch builds a tick payload the cloud fans out: one cell batch of
// n entity deltas with a sprinkling of removals, like a busy world tick
// seen by a subscriber of every cell.
func fanoutBatch(n int) protocol.CellBatch {
	deltas := make([]virtualworld.Delta, n)
	for i := range deltas {
		deltas[i] = virtualworld.Delta{
			ID:      virtualworld.EntityID(i + 1),
			Removed: i%7 == 3,
			Entity: virtualworld.Entity{
				ID: virtualworld.EntityID(i + 1), Kind: virtualworld.KindNPC,
				Owner: -1, X: float64(i), Y: float64(2 * i), HP: 80,
			},
		}
	}
	return protocol.CellBatch{Tick: 42, Cell: 3, Deltas: deltas}
}

// fanoutWidth is the supernode count the tick fan-out benchmark serves.
const fanoutWidth = 8

// BenchmarkTickFanout measures the zero-allocation fan-out path end to
// end, exactly as fanOut + snWriter run it for subscribe-all supernodes:
// one framed encode of a cell batch into a pooled reference-counted
// buffer, one enqueue per supernode, then each writer draining its queue
// into a pooled coalescing buffer flushed with a single write. Steady
// state: 0 allocs/op for the whole 8-wide fan-out.
func BenchmarkTickFanout(b *testing.B) {
	batch := fanoutBatch(64)
	queues := make([]chan outMsg, fanoutWidth)
	for i := range queues {
		queues[i] = make(chan outMsg, DefaultSendQueueLen)
	}
	var pending []outMsg // reused drain list, as in snWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// fanOut side: encode once, arm one reference per recipient.
		sp := newSharedPayload(len(queues))
		var err error
		if sp.buf.B, err = protocol.AppendMessage(sp.buf.B, protocol.MsgCellBatch, &batch); err != nil {
			b.Fatal(err)
		}
		for _, q := range queues {
			q <- outMsg{framed: true, payload: sp.buf.B, shared: sp}
		}
		// snWriter side: drain, coalesce into a pooled buffer, flush once.
		for _, q := range queues {
			pending = pending[:0]
		drain:
			for {
				select {
				case m := <-q:
					pending = append(pending, m)
				default:
					break drain
				}
			}
			buf := protocol.GetBuffer()
			for _, m := range pending {
				if buf.B, _, err = appendOut(buf.B, m); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := io.Discard.Write(buf.B); err != nil {
				b.Fatal(err)
			}
			for j := range pending {
				pending[j].shared.release()
				pending[j] = outMsg{}
			}
			protocol.PutBuffer(buf)
		}
	}
}

// npcWorld builds a default-size world of npcs NPCs placed as
// NewCloudServer places CloudConfig.NPCs: the first 16 on a 4×4 lattice,
// the rest piled on the top edge.
func npcWorld(npcs int) *virtualworld.World {
	w := virtualworld.New(0, 0)
	width, height := w.Size()
	for i := 0; i < npcs; i++ {
		w.SpawnNPC(width*float64(i%4+1)/5, height*float64(i/4+1)/5)
	}
	return w
}

// frameStreamReplica builds the replica a fog renders from: npcWorld plus
// player 1's avatar at (x, y), seeded into a replica as a joining fog is.
func frameStreamReplica(npcs int, x, y float64) *virtualworld.Replica {
	w := npcWorld(npcs)
	w.SpawnAvatar(1, x, y)
	rep := virtualworld.NewReplica(0, 0)
	rep.Seed(w.Snapshot())
	return rep
}

// benchFrameStream runs the fog tier's 30 fps streaming loop for player 1
// as runVideoSession runs it: every iteration queries the replica for the
// player's view under the node mutex, rasterizes it into a reused
// framebuffer, compresses into reused encoder scratch, frames the result
// into a pooled buffer, and flushes with a single write. Steady state:
// 0 allocs/op.
func benchFrameStream(b *testing.B, rep *virtualworld.Replica, level game.QualityLevel) {
	fog := &FogNode{replica: rep}
	pipe := newFramePipeline(level)
	out := protocol.GetBuffer()
	defer protocol.PutBuffer(out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.next(fog, 1)
		var err error
		out.B, err = protocol.AppendMessage(out.B[:0], protocol.MsgVideoFrame, &pipe.ef)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write(out.B); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameStream is the streaming loop at level 3 over a small
// world: an avatar that walked a few steps and nothing else.
func BenchmarkFrameStream(b *testing.B) {
	w := virtualworld.New(400, 400)
	w.SpawnAvatar(1, 100, 100)
	for i := 0; i < 5; i++ {
		w.Step([]virtualworld.Action{{Player: 1, Kind: virtualworld.ActMove, TargetX: 300, TargetY: 300}})
	}
	rep := virtualworld.NewReplica(0, 0)
	rep.Seed(w.Snapshot())
	benchFrameStream(b, rep, 3)
}

// BenchmarkFrameStreamBigWorld is the streaming loop at level 1 over a
// 20k-NPC replica with a few NPCs in view: the per-frame cost must track
// the view, not the world.
func BenchmarkFrameStreamBigWorld(b *testing.B) {
	benchFrameStream(b, frameStreamReplica(20_000, 300, 220), 1)
}

// TestTickFanoutSteadyStateAllocs pins the fan-out benchmark's property as
// a regression test: after warm-up the shared-encode + coalesced-drain
// cycle allocates nothing.
func TestTickFanoutSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under -race; allocation counts only hold without it")
	}
	batch := fanoutBatch(64)
	q := make(chan outMsg, DefaultSendQueueLen)
	var pending []outMsg
	cycle := func() {
		sp := newSharedPayload(1)
		var err error
		if sp.buf.B, err = protocol.AppendMessage(sp.buf.B, protocol.MsgCellBatch, &batch); err != nil {
			t.Fatal(err)
		}
		q <- outMsg{framed: true, payload: sp.buf.B, shared: sp}
		pending = pending[:0]
	drain:
		for {
			select {
			case m := <-q:
				pending = append(pending, m)
			default:
				break drain
			}
		}
		buf := protocol.GetBuffer()
		for _, m := range pending {
			if buf.B, _, err = appendOut(buf.B, m); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := io.Discard.Write(buf.B); err != nil {
			t.Fatal(err)
		}
		for j := range pending {
			pending[j].shared.release()
			pending[j] = outMsg{}
		}
		protocol.PutBuffer(buf)
	}
	for i := 0; i < 8; i++ { // warm-up: grow pools and scratch
		cycle()
	}
	if n := testing.AllocsPerRun(64, cycle); n != 0 {
		t.Fatalf("tick fan-out allocates %.1f/op in steady state, want 0", n)
	}
}
