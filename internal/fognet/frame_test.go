package fognet

import (
	"bytes"
	"testing"

	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/rng"
	"cloudfog/internal/videocodec"
	"cloudfog/internal/virtualworld"
)

// snapshotFrames is the reference frame path: a full sorted snapshot,
// the renderer's ViewportFor, and RenderInto's cull-then-draw.
type snapshotFrames struct {
	renderer *render.Renderer
	encoder  *videocodec.Encoder
	frame    *render.Frame
	ef       videocodec.EncodedFrame
}

func newSnapshotFrames(level game.QualityLevel) *snapshotFrames {
	r := render.NewRenderer(render.ResolutionForLevel(int(level)))
	return &snapshotFrames{
		renderer: r,
		encoder:  videocodec.NewEncoder(game.MustQuality(level).BitrateKbps),
		frame:    render.NewFrame(r.Resolution()),
	}
}

func (s *snapshotFrames) next(snap virtualworld.Snapshot, player int) {
	s.renderer.RenderInto(snap, render.ViewportFor(snap, player), s.frame)
	s.encoder.EncodeInto(s.frame, &s.ef)
}

// TestFrameViewMatchesSnapshotRender: the frames a fog (replica) and the
// cloud (world) stream from the grid view query are byte-identical, on
// the wire, to rendering a full snapshot — for walking players, a player
// with no avatar, across many ticks of one encoder's GOP.
func TestFrameViewMatchesSnapshotRender(t *testing.T) {
	r := rng.New(3)
	w := npcWorld(2000)
	width, height := w.Size()
	for i := 0; i < 600; i++ {
		w.SpawnNPC(r.Uniform(0, width), r.Uniform(0, height))
	}
	players := []int{1, 2, 3}
	for _, p := range players {
		w.SpawnAvatar(p, r.Uniform(50, 400), r.Uniform(50, 400))
	}
	players = append(players, 99) // never spawned: views the world centre
	rep := virtualworld.NewReplica(0, 0)
	rep.Seed(w.Snapshot())
	sources := []struct {
		name string
		src  viewSource
	}{
		{"fog", &FogNode{replica: rep}},
		{"cloud", &CloudServer{world: w}},
	}
	const level = 2
	type pipeKey struct {
		source string
		player int
	}
	pipes := make(map[pipeKey]*framePipeline)
	refs := make(map[int]*snapshotFrames)
	var got, want []byte
	for tick := 0; tick < 40; tick++ {
		var acts []virtualworld.Action
		for _, p := range players[:3] {
			acts = append(acts, virtualworld.Action{Player: p, Kind: virtualworld.ActMove,
				TargetX: r.Uniform(0, width), TargetY: r.Uniform(0, height)})
		}
		deltas := w.Step(acts)
		rep.Apply(w.Tick(), deltas)
		snap := w.Snapshot()
		for _, p := range players {
			ref := refs[p]
			if ref == nil {
				ref = newSnapshotFrames(level)
				refs[p] = ref
			}
			ref.next(snap, p)
			var err error
			if want, err = protocol.AppendMessage(want[:0], protocol.MsgVideoFrame, &ref.ef); err != nil {
				t.Fatal(err)
			}
			for _, s := range sources {
				key := pipeKey{s.name, p}
				pipe := pipes[key]
				if pipe == nil {
					pipe = newFramePipeline(level)
					pipes[key] = pipe
				}
				if ft := pipe.next(s.src, p); ft != snap.Tick {
					t.Fatalf("%s player %d tick %d: frame depicts tick %d", s.name, p, snap.Tick, ft)
				}
				if !pipe.frame.Equal(ref.frame) || pipe.frame.Tick != ref.frame.Tick {
					t.Fatalf("%s player %d tick %d: frame differs from the snapshot render", s.name, p, snap.Tick)
				}
				if got, err = protocol.AppendMessage(got[:0], protocol.MsgVideoFrame, &pipe.ef); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s player %d tick %d: encoded frame differs from the snapshot render", s.name, p, snap.Tick)
				}
			}
		}
	}
}

// TestFramePipelineSteadyStateAllocs pins the 30 fps loop's contract at
// the big-world shape: view query + render + encode + framing of a frame
// from a 20k-NPC replica allocates nothing once the scratch has grown.
func TestFramePipelineSteadyStateAllocs(t *testing.T) {
	fog := &FogNode{replica: frameStreamReplica(20_000, 300, 220)}
	pipe := newFramePipeline(1)
	var out []byte
	frame := func() {
		pipe.next(fog, 1)
		var err error
		if out, err = protocol.AppendMessage(out[:0], protocol.MsgVideoFrame, &pipe.ef); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm-up: grow the view, frame and encoder scratch
		frame()
	}
	if len(pipe.vis) < 2 {
		t.Fatalf("fixture draws %d entities, want the avatar and some NPCs", len(pipe.vis))
	}
	if n := testing.AllocsPerRun(20, frame); n != 0 {
		t.Fatalf("frame pipeline allocates %.1f/op in steady state, want 0", n)
	}
}
