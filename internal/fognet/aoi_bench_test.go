package fognet

import (
	"io"
	"testing"

	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// aoiBenchFixture is the tick fan-out fixture: one tick's delta stream
// over a world×world map, fanoutWidth subscribers each watching a
// viewport-sized footprint around its player. The first `visible` deltas
// land inside those footprints; the rest are spread uniformly over the
// whole world (background activity no subscriber cares about). A
// subscribe-all fixture gives every subscriber a nil interest set instead.
// The fan-out itself is the cloud's own (CloudServer.fanOut) over a
// capture of test supernodes.
type aoiBenchFixture struct {
	geo     virtualworld.GridGeom
	deltas  []virtualworld.Delta
	cloud   CloudServer
	pending []outMsg
}

func newAoIBenchFixture(total, visible int, world float64, all bool) *aoiBenchFixture {
	f := &aoiBenchFixture{geo: virtualworld.Geometry(world, world, virtualworld.DefaultCellSize)}
	r := rng.New(uint64(total)*31 + uint64(visible)).SplitNamed("aoi-bench")
	type pt struct{ x, y float64 }
	players := make([]pt, fanoutWidth)
	halfW := render.ViewHalfWidth + DefaultAoIMargin
	halfH := render.ViewHalfHeight + DefaultAoIMargin
	var cells []uint32
	for i := range players {
		players[i] = pt{
			x: world * float64(i+1) / float64(fanoutWidth+1),
			y: world / 2,
		}
		if all {
			f.subscribe(nil)
			continue
		}
		is := newInterestSet(1, f.geo.NumCells())
		cells = f.geo.AppendCellsInRect(cells[:0],
			players[i].x-halfW, players[i].y-halfH, players[i].x+halfW, players[i].y+halfH)
		for _, c := range cells {
			is.add(c)
		}
		f.subscribe(is)
	}
	f.deltas = make([]virtualworld.Delta, total)
	for i := range f.deltas {
		var x, y float64
		if i < visible {
			// Inside the cycling player's viewport: guaranteed subscribed.
			p := players[i%len(players)]
			x = p.x + (r.Float64()*2-1)*render.ViewHalfWidth
			y = p.y + (r.Float64()*2-1)*render.ViewHalfHeight
		} else {
			x = r.Float64() * world
			y = r.Float64() * world
		}
		id := virtualworld.EntityID(i + 1)
		f.deltas[i] = virtualworld.Delta{ID: id, Entity: virtualworld.Entity{
			ID: id, Kind: virtualworld.KindNPC, Owner: -1, X: x, Y: y, HP: 80, Version: 7,
		}}
	}
	return f
}

// subscribe adds one supernode with interest set is (nil = every cell)
// and the production queue length: a tick is one queue entry per
// supernode, so the fixture's drain after every tick never drops.
func (f *aoiBenchFixture) subscribe(is *interestSet) {
	sn := &supernodeConn{sendQ: make(chan outMsg, DefaultSendQueueLen)}
	f.cloud.fanSNs = append(f.cloud.fanSNs, fanSN{sn: sn, interest: is})
}

// tick runs one fan-out cycle as tickOnce + snWriter do: the cloud's
// fanOut buckets the deltas by cell, frames each watched batch once and
// enqueues one tick payload per recipient, then every queue drains
// through the coalescing writer path. Returns the egress bytes this tick put on the wire.
func (f *aoiBenchFixture) tick(tb testing.TB) int64 {
	f.cloud.fanOut(f.geo, 42, f.deltas, 0)
	if n := f.cloud.queueDrops.Load(); n != 0 {
		tb.Fatalf("fan-out dropped %d messages", n)
	}
	var bytes int64
	for _, fs := range f.cloud.fanSNs {
		f.pending = f.pending[:0]
	drain:
		for {
			select {
			case m := <-fs.sn.sendQ:
				f.pending = append(f.pending, m)
			default:
				break drain
			}
		}
		buf := protocol.GetBuffer()
		for _, m := range f.pending {
			var err error
			if buf.B, _, err = appendOut(buf.B, m); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := io.Discard.Write(buf.B); err != nil {
			tb.Fatal(err)
		}
		bytes += int64(len(buf.B))
		for j := range f.pending {
			f.pending[j].shared.release()
			f.pending[j] = outMsg{}
		}
		protocol.PutBuffer(buf)
	}
	return bytes
}

// aoiBenchCases: the world-scaling rows hold the visible set fixed while
// the world (entities and area, constant density) grows — AoI cost must
// stay flat. The visible-scaling rows hold the world fixed while the
// in-footprint share grows — AoI cost must grow linearly with it. The
// visible=all rows are subscribe-all supernodes (no interest set), whose
// cost grows with the world: they receive every dirty cell.
var aoiBenchCases = []struct {
	name    string
	total   int
	visible int
	world   float64
	all     bool
}{
	{"world=2k/visible=512", 2_000, 512, 1400, false},
	{"world=10k/visible=512", 10_000, 512, 3200, false},
	{"world=40k/visible=512", 40_000, 512, 6400, false},
	{"world=16k/visible=1k", 16_000, 1_000, 4000, false},
	{"world=16k/visible=4k", 16_000, 4_000, 4000, false},
	{"world=16k/visible=16k", 16_000, 16_000, 4000, false},
	{"world=2k/visible=all", 2_000, 0, 1400, true},
	{"world=10k/visible=all", 10_000, 0, 3200, true},
	{"world=40k/visible=all", 40_000, 0, 6400, true},
}

// BenchmarkAoITickFanout measures the tick fan-out. Alongside ns/op it
// reports fanoutB/tick — the Λ egress one tick puts on the wire — which
// is the number the AoI layer exists to bound.
func BenchmarkAoITickFanout(b *testing.B) {
	for _, tc := range aoiBenchCases {
		b.Run(tc.name, func(b *testing.B) {
			f := newAoIBenchFixture(tc.total, tc.visible, tc.world, tc.all)
			f.tick(b) // warm pools and plan scratch
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int64
			for i := 0; i < b.N; i++ {
				bytes += f.tick(b)
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "fanoutB/tick")
		})
	}
}

// TestAoIFanoutSteadyStateAllocs pins the fan-out's allocation discipline
// as a regression test: after warm-up, bucketing + per-cell encode +
// enqueue + coalesced drain allocate nothing, for AoI subscribers and a
// subscribe-all one alike.
func TestAoIFanoutSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes caching under -race; allocation counts only hold without it")
	}
	f := newAoIBenchFixture(2048, 512, 1400, false)
	f.subscribe(nil)
	// Convergence needs more warm-up than the single-payload fan-out test:
	// the cycle keeps one pooled payload per subscriber in flight, and the
	// pools reach that high-water mark over several ticks.
	for i := 0; i < 512; i++ {
		f.tick(t)
	}
	if n := testing.AllocsPerRun(64, func() { f.tick(t) }); n != 0 {
		t.Fatalf("tick fan-out allocates %.1f/op in steady state, want 0", n)
	}
}
