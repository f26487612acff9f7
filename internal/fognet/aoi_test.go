package fognet

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"cloudfog/internal/faultnet"
	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/rng"
	"cloudfog/internal/virtualworld"
)

// startAoIFog is startFog with interest management on.
func startAoIFog(t *testing.T, cloud *CloudServer, name string, capacity int) *FogNode {
	t.Helper()
	fog, err := NewFogNode(FogConfig{
		Name:          name,
		CloudAddr:     cloud.Addr(),
		Capacity:      capacity,
		FrameInterval: 10 * time.Millisecond,
		AoI:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fog.Close() })
	return fog
}

// TestAoIEndToEndStreaming runs the full loop over the interest-managed
// stream: the fog reports its footprint, the cloud switches it to per-cell
// batches (with a keyframe per gained cell), and the player still gets
// frames that track the world.
func TestAoIEndToEndStreaming(t *testing.T) {
	cloud := startCloud(t)
	fog := startAoIFog(t, cloud, "fog-aoi", 4)

	// Even before any player, the fog's (empty) report replaces its
	// subscribe-all default.
	waitFor(t, 2*time.Second, "AoI switchover", func() bool {
		return cloud.Stats().AoISupernodes == 1
	})

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID:       7,
		CloudAddr:      cloud.Addr(),
		Game:           game.Catalog()[2],
		ActionInterval: 10 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	waitFor(t, 5*time.Second, "decoded frames", func() bool {
		s := player.Stats()
		return s.Frames >= 10 && s.LastTick > 0
	})
	fs := fog.Stats()
	if fs.InterestUpdatesSent == 0 {
		t.Error("no interest updates sent")
	}
	if fs.InterestCells == 0 {
		t.Error("empty footprint with an attached player")
	}
	if fs.CellBatches == 0 {
		t.Error("no cell batches applied")
	}
	if fs.KeyframesApplied == 0 {
		t.Error("no cell-enter keyframes applied")
	}
	cs := cloud.Stats()
	if cs.InterestUpdates == 0 || cs.KeyframeCells == 0 {
		t.Errorf("cloud AoI counters: %+v", cs)
	}
	if cs.UpdateBits == 0 {
		t.Error("no update egress counted for cell batches")
	}
}

// TestAoIReplicaTracksAvatar asserts the partial view is exact where it
// matters: the fog's replica position for an attached, moving player
// converges to the cloud's authoritative one.
func TestAoIReplicaTracksAvatar(t *testing.T) {
	cloud := startCloud(t)
	fog := startAoIFog(t, cloud, "fog-aoi", 4)

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID:       9,
		CloudAddr:      cloud.Addr(),
		ActionInterval: 10 * time.Millisecond,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	waitFor(t, 5*time.Second, "replica tracks the avatar", func() bool {
		ax, ay, ok := cloudAvatarPos(cloud, 9)
		if !ok {
			return false
		}
		fog.mu.Lock()
		rx, ry, rok := fog.replica.AvatarPos(9)
		fog.mu.Unlock()
		// Within a couple of ticks of movement (MoveSpeed 8/tick).
		return rok && math.Abs(rx-ax) < 32 && math.Abs(ry-ay) < 32
	})
}

// cloudAvatarPos reads a player's authoritative avatar position.
func cloudAvatarPos(s *CloudServer, player int) (x, y float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.world.Avatar(player); a != nil {
		return a.X, a.Y, true
	}
	return 0, 0, false
}

// applyTickWire reads the framed cell batches of one fan-out queue entry
// and applies each as the fog's update loop does, so parity covers the
// codec and framing as well as the bucketing.
func applyTickWire(t testing.TB, r *virtualworld.Replica, m outMsg) {
	t.Helper()
	if !m.framed {
		t.Fatalf("fan-out enqueued an unframed message of type %v", m.typ)
	}
	fr := protocol.NewFrameReader(bytes.NewReader(m.payload))
	for {
		typ, payload, err := fr.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatalf("tick payload framing: %v", err)
		}
		if typ != protocol.MsgCellBatch {
			t.Fatalf("tick payload carries message type %v", typ)
		}
		var got protocol.CellBatch
		if err := protocol.DecodeCellBatch(payload, &got); err != nil {
			t.Fatalf("cell batch decode: %v", err)
		}
		if got.Keyframe {
			r.ApplyCellKeyframe(got.Tick, got.Cell, got.Deltas)
		} else {
			r.Apply(got.Tick, got.Deltas)
		}
	}
}

// FuzzAoIPartitionParity is the fan-out equivalence property and the
// proof that a subscribe-all supernode sees the full world: for any delta
// stream, the cell batches the cloud's fanOut enqueues for a supernode
// that subscribes to every cell — with no interest set, alone or next to
// an AoI supernode, or with a set that has every cell — decoded off the
// wire and applied to a replica, produce exactly the same state as
// applying the whole tick's deltas at once.
func FuzzAoIPartitionParity(f *testing.F) {
	f.Add(uint64(1), uint(40), uint(8))
	f.Add(uint64(7), uint(0), uint(0))
	f.Add(uint64(99), uint(200), uint(3))
	f.Add(uint64(12345), uint(1), uint(1))
	f.Fuzz(func(t *testing.T, seed uint64, nDeltas, nSession uint) {
		if nDeltas > 2048 {
			nDeltas = nDeltas % 2048
		}
		if nSession > nDeltas {
			nSession = nSession % (nDeltas + 1)
		}
		const width, height = 1000, 700
		geo := virtualworld.Geometry(width, height, virtualworld.DefaultCellSize)
		r := rng.New(seed).SplitNamed("aoi-parity")

		// A shared base population every replica starts from.
		full := virtualworld.NewReplica(width, height)
		var seedDeltas []virtualworld.Delta
		for i := 0; i < 32; i++ {
			id := virtualworld.EntityID(i + 1)
			seedDeltas = append(seedDeltas, virtualworld.Delta{ID: id, Entity: virtualworld.Entity{
				ID: id, Kind: virtualworld.KindNPC, Owner: -1,
				X: r.Float64() * width, Y: r.Float64() * height, HP: 50, Version: 1,
			}})
		}
		full.Apply(1, seedDeltas)

		// One tick's worth of deltas: the first nSession are session events
		// (spawns/removals without positions guaranteed meaningful), the
		// rest positioned updates; a sprinkling of removals throughout.
		// The generator keeps the real per-tick invariant — an entity is
		// either removed or updated within one tick, never both — because
		// the AoI partition only preserves ordering across buckets per
		// entity, not between a removal and a same-tick resurrection (a
		// stream Step cannot emit).
		const (
			stateUpdated = 1
			stateRemoved = 2
		)
		idState := make(map[virtualworld.EntityID]byte)
		deltas := make([]virtualworld.Delta, 0, nDeltas)
		for i := uint(0); i < nDeltas; i++ {
			id := virtualworld.EntityID(r.Intn(64) + 1)
			if r.Float64() < 0.15 && idState[id] == 0 {
				idState[id] = stateRemoved
				deltas = append(deltas, virtualworld.Delta{ID: id, Removed: true})
				continue
			}
			if idState[id] == stateRemoved {
				continue
			}
			idState[id] = stateUpdated
			deltas = append(deltas, virtualworld.Delta{ID: id, Entity: virtualworld.Entity{
				ID: id, Kind: virtualworld.KindNPC, Owner: -1,
				X: r.Float64() * width, Y: r.Float64() * height,
				HP: int16(r.Intn(100)), Version: uint32(i) + 2,
			}})
		}

		// The reference replica applies the whole tick at once.
		full.Apply(2, deltas)

		// Each replica applies what fanOut enqueued for one supernode, with
		// the production queue length: at most one entry per tick. A
		// subscribe-all supernode alone gets the tick unpartitioned; next
		// to an AoI supernode it gets the partitioned stream — the global
		// bucket (session events and removals) first, then each dirty cell
		// — as does an AoI supernode whose set has every cell.
		every := newInterestSet(1, geo.NumCells())
		for c := 0; c < geo.NumCells(); c++ {
			every.add(uint32(c))
		}
		none := newInterestSet(1, geo.NumCells())
		want := full.Snapshot()
		for _, interests := range [][]*interestSet{{nil}, {nil, none}, {every, none}} {
			var cloud CloudServer
			for _, is := range interests {
				sn := &supernodeConn{sendQ: make(chan outMsg, DefaultSendQueueLen)}
				cloud.fanSNs = append(cloud.fanSNs, fanSN{sn: sn, interest: is})
			}
			cloud.fanOut(geo, 2, deltas, int(nSession))
			if n := cloud.queueDrops.Load(); n != 0 {
				t.Fatalf("fan-out dropped %d messages", n)
			}
			for i, fs := range cloud.fanSNs {
				if n := len(fs.sn.sendQ); n > 1 {
					t.Fatalf("fan-out enqueued %d entries for one tick, want at most 1", n)
				}
				if fs.interest == none {
					continue
				}
				rep := virtualworld.NewReplica(width, height)
				rep.Apply(1, seedDeltas)
				for len(fs.sn.sendQ) > 0 {
					m := <-fs.sn.sendQ
					applyTickWire(t, rep, m)
					m.shared.release()
				}
				if got := rep.Snapshot(); !got.Equal(want) {
					t.Fatalf("partition parity broken (seed=%d n=%d s=%d, supernode %d of %d):\nfan-out: %+v\nfull:    %+v",
						seed, nDeltas, nSession, i+1, len(interests), got, want)
				}
				if got, want := rep.Grid().Digest(), full.Grid().Digest(); got != want {
					t.Fatalf("partition parity broken in the grid (seed=%d n=%d s=%d, supernode %d of %d): fan-out %x, full %x",
						seed, nDeltas, nSession, i+1, len(interests), got, want)
				}
			}
		}
	})
}

// TestFanOutOneEntryPerTick is the send-queue contract of the tick
// stream: with the production queue length and every one of a default
// world's 256 cells dirty on every tick, each supernode gets exactly one
// queue entry per tick and nothing drops. A subscribe-all replica and an
// AoI replica that subscribed to every cell at once — 256 keyframes owed
// in its first tick — both track the authoritative state exactly.
func TestFanOutOneEntryPerTick(t *testing.T) {
	const size = 1024
	geo := virtualworld.Geometry(size, size, virtualworld.DefaultCellSize)
	r := rng.New(7).SplitNamed("fanout-entry")
	const nEnt = 1024
	ref := virtualworld.NewReplica(size, size)
	allRep := virtualworld.NewReplica(size, size)
	aoiRep := virtualworld.NewReplica(size, size)
	// spread returns tick-version deltas that place every step-th entity
	// at a random point, so a tick dirties most of the cells while the
	// entities it leaves alone reach the AoI replica only by keyframe.
	spread := func(version uint32, step int) []virtualworld.Delta {
		var deltas []virtualworld.Delta
		for i := int(version) % step; i < nEnt; i += step {
			id := virtualworld.EntityID(i + 1)
			deltas = append(deltas, virtualworld.Delta{ID: id, Entity: virtualworld.Entity{
				ID: id, Kind: virtualworld.KindNPC, Owner: -1,
				X: r.Float64() * size, Y: r.Float64() * size, HP: 50, Version: version,
			}})
		}
		return deltas
	}
	seed := spread(1, 1)
	ref.Apply(1, seed)
	allRep.Apply(1, seed)

	var cloud CloudServer
	allSN := &supernodeConn{sendQ: make(chan outMsg, DefaultSendQueueLen)}
	aoiSN := &supernodeConn{sendQ: make(chan outMsg, DefaultSendQueueLen)}
	every := newInterestSet(1, geo.NumCells())
	for c := 0; c < geo.NumCells(); c++ {
		every.add(uint32(c))
	}
	cloud.fanSNs = []fanSN{{sn: allSN}, {sn: aoiSN, interest: every}}

	for tick := uint64(2); tick <= 5; tick++ {
		deltas := spread(uint32(tick), 2)
		ref.Apply(tick, deltas)
		cloud.keyPlan = cloud.keyPlan[:0]
		cloud.keyDeltas = cloud.keyDeltas[:0]
		if tick == 2 {
			// The first interest report keyframes every subscribed cell
			// with its post-Step state, as tickOnce gathers it.
			for c := uint32(0); c < uint32(geo.NumCells()); c++ {
				off := int32(len(cloud.keyDeltas))
				for _, id := range ref.Grid().AppendCell(nil, c) {
					e, _ := ref.Entity(id)
					cloud.keyDeltas = append(cloud.keyDeltas, virtualworld.Delta{ID: id, Entity: e})
				}
				cloud.keyPlan = append(cloud.keyPlan, keyItem{sn: aoiSN, cell: c, off: off,
					n: int32(len(cloud.keyDeltas)) - off})
			}
		}
		cloud.fanOut(geo, tick, deltas, 0)
		if dirty := cloud.aoi.numDirty(); dirty <= DefaultSendQueueLen {
			t.Fatalf("tick %d dirtied %d cells, want more than the queue length %d",
				tick, dirty, DefaultSendQueueLen)
		}
		if n := cloud.queueDrops.Load(); n != 0 {
			t.Fatalf("tick %d: fan-out dropped %d messages", tick, n)
		}
		for _, tc := range []struct {
			sn  *supernodeConn
			rep *virtualworld.Replica
		}{{allSN, allRep}, {aoiSN, aoiRep}} {
			if n := len(tc.sn.sendQ); n != 1 {
				t.Fatalf("tick %d: %d queue entries, want 1", tick, n)
			}
			m := <-tc.sn.sendQ
			applyTickWire(t, tc.rep, m)
			m.shared.release()
		}
		want := ref.Snapshot()
		if got := allRep.Snapshot(); !got.Equal(want) {
			t.Fatalf("tick %d: subscribe-all replica diverged", tick)
		}
		if got := aoiRep.Snapshot(); !got.Equal(want) {
			t.Fatalf("tick %d: AoI replica diverged", tick)
		}
	}
}

// TestAoIInterestSurvivesBlackhole is the chaos case: the fog's cloud link
// blackholes mid-session while the player keeps moving, so the footprint
// the cloud holds goes stale and interest updates vanish in flight. After
// the fog reconnects, AoI must rearm from scratch — fresh report, fresh
// keyframes — and the replica must converge back to the authoritative
// avatar position instead of serving stale-cell state.
func TestAoIInterestSurvivesBlackhole(t *testing.T) {
	cloud := startChaosCloud(t, nil)
	inj := faultnet.NewInjector(faultnet.Profile{Seed: 200})
	fog, err := NewFogNode(FogConfig{
		Name: "fog-aoi-chaos", CloudAddr: cloud.Addr(),
		Capacity: 4, FrameInterval: 10 * time.Millisecond,
		AoI:              true,
		Dial:             inj.Dial,
		ReconnectBackoff: 20 * time.Millisecond,
		WriteTimeout:     200 * time.Millisecond,
		Seed:             200,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fog.Close()
	waitFor(t, 2*time.Second, "AoI registration", func() bool {
		return cloud.Stats().AoISupernodes == 1
	})

	player, perr := NewPlayerClient(PlayerConfig{
		PlayerID: 41, CloudAddr: cloud.Addr(),
		ActionInterval: 5 * time.Millisecond, Seed: 41,
	})
	if perr != nil {
		t.Fatal(perr)
	}
	defer player.Close()
	waitFor(t, 5*time.Second, "streaming with a footprint", func() bool {
		fs := fog.Stats()
		return fs.InterestCells > 0 && fs.KeyframesApplied > 0 && player.Stats().Frames > 3
	})
	sentBefore := fog.Stats().InterestUpdatesSent
	keyframesBefore := fog.Stats().KeyframesApplied

	// Blackhole the fog↔cloud link. The player keeps acting (its control
	// connection is separate), so the authoritative avatar walks away from
	// whatever cells the cloud last heard the fog wanted.
	inj.SetMode(faultnet.Blackhole)
	time.Sleep(300 * time.Millisecond)
	inj.SetMode(faultnet.Healthy)

	// The fog reconnects (eviction or dead-conn detection), rearms AoI,
	// re-reports, and gets keyframes for the re-entered cells.
	waitFor(t, 10*time.Second, "AoI rearmed after reconnect", func() bool {
		fs := fog.Stats()
		return fs.Resilience.Reconnects >= 1 &&
			fs.InterestUpdatesSent > sentBefore &&
			fs.KeyframesApplied > keyframesBefore
	})
	// No stale-cell state reaches the player: the replica's avatar view
	// reconverges to the authoritative position.
	waitFor(t, 5*time.Second, "replica reconverged", func() bool {
		ax, ay, found := cloudAvatarPos(cloud, 41)
		if !found {
			return false
		}
		fog.mu.Lock()
		rx, ry, rok := fog.replica.AvatarPos(41)
		fog.mu.Unlock()
		return rok && math.Abs(rx-ax) < 32 && math.Abs(ry-ay) < 32
	})
}

// TestAoIBackCompat pins the subscribe-all contract: a fog that never
// reports interest is subscribed to every cell, so next to an AoI fog on
// the same cloud it still receives the whole world's cell batches and its
// replica tracks every tick.
func TestAoIBackCompat(t *testing.T) {
	cloud := startCloud(t)
	all := startFog(t, cloud, "fog-all", 4)
	aoi := startAoIFog(t, cloud, "fog-aoi", 4)

	player, err := NewPlayerClient(PlayerConfig{
		PlayerID: 11, CloudAddr: cloud.Addr(),
		ActionInterval: 10 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer player.Close()

	// The subscribe-all fog tracks every tick. The AoI fog has no
	// players, so its footprint is empty and it receives only the global
	// bucket — the player's join (a session delta) is broadcast to it,
	// and that is all the traffic an idle subscriber costs.
	waitFor(t, 5*time.Second, "replicas see their streams", func() bool {
		return all.Stats().ReplicaTick > 10 && aoi.Stats().CellBatches >= 1
	})
	cs := cloud.Stats()
	if cs.Supernodes != 2 || cs.AoISupernodes != 1 {
		t.Errorf("supernode split: %+v", cs)
	}
	as := all.Stats()
	if as.InterestUpdatesSent != 0 {
		t.Errorf("subscribe-all fog reported interest: %+v", as)
	}
	// Its replica applies every cell's deltas, so the applied-delta
	// counter keeps climbing.
	if as.AppliedDeltas == 0 {
		t.Error("subscribe-all fog applied nothing")
	}
}
