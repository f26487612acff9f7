package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"cloudfog/internal/fognet"
	"cloudfog/internal/game"
)

// liveShape is one live three-tier deployment on loopback.
type liveShape struct {
	npcs     int
	fogs     int
	fogCap   int
	aoi      bool // fogs subscribe to grid cells instead of the full world
	datagram bool // players upgrade their video to UDP datagrams
	level    game.QualityLevel
	// openLoop selects the arrival model: players arrive on a seeded
	// schedule and leave after short sessions. Otherwise maxLive players
	// join at the start and stay for the whole run.
	openLoop bool
}

// maxLive caps the players live at once: one per core of the 2-core
// machine the benchmark was defined on, each holding one control and one
// video connection.
const maxLive = 2

// A live run starts its cluster at least minSetups times, and more while
// setupBudget lasts (at most maxSetups); setup_s is the median, and the
// last cluster is the one measured.
const (
	minSetups   = 7
	maxSetups   = 101
	setupBudget = time.Second
)

// Open-loop schedule of live-bigworld: arrivals every meanGap ± 25%
// (over 100 joins in 15 s), each session held holdMin + U[0, holdSpread)
// after its first frame.
const (
	meanGap    = 140 * time.Millisecond
	holdMin    = 100 * time.Millisecond
	holdSpread = 50 * time.Millisecond
)

// streamWarmup is how long live-stream plays before the window opens.
const streamWarmup = time.Second

// firstFrameTimeout bounds the wait for a session's first frame.
const firstFrameTimeout = 3 * time.Second

var streamShape = liveShape{npcs: 6, fogs: 1, fogCap: maxLive, level: 5}

var bigWorldShape = liveShape{npcs: 20_000, fogs: 2, fogCap: maxLive, aoi: true, datagram: true,
	level: 1, openLoop: true}

type cluster struct {
	cloud *fognet.CloudServer
	fogs  []*fognet.FogNode
}

func (c *cluster) close() {
	for _, f := range c.fogs {
		f.Close()
	}
	c.cloud.Close()
}

// startCluster starts the cloud and the fog nodes. It returns once every
// NewFogNode has returned, that is, once every replica is seeded.
func startCluster(sh liveShape, rec *liveRec, seed uint64) (*cluster, error) {
	cc := fognet.CloudConfig{NPCs: sh.npcs, Seed: seed}
	if rec.traced {
		cc.WrapConn = rec.wrapCloudConn
	}
	cloud, err := fognet.NewCloudServer(cc)
	if err != nil {
		return nil, err
	}
	c := &cluster{cloud: cloud}
	for i := 0; i < sh.fogs; i++ {
		fc := fognet.FogConfig{
			Name:      fmt.Sprintf("fog-%d", i+1),
			CloudAddr: cloud.Addr(),
			Capacity:  sh.fogCap,
			Seed:      seed + uint64(i),
			AoI:       sh.aoi,
			Datagram:  sh.datagram,
		}
		if rec.traced {
			fc.Dial = rec.fogDial(i)
		}
		fog, err := fognet.NewFogNode(fc)
		if err != nil {
			c.close()
			return nil, err
		}
		c.fogs = append(c.fogs, fog)
	}
	return c, nil
}

// setupCluster starts the cluster repeatedly, keeping the last, and
// reports the median start time.
func setupCluster(sh liveShape, rec *liveRec, seed uint64, res *result) (*cluster, error) {
	var times, walls []float64
	start := time.Now()
	for {
		last := len(times)+1 >= maxSetups ||
			(len(times)+1 >= minSetups && time.Since(start) >= setupBudget)
		r := rec
		if !last {
			// Discarded with its cluster: same hooks, no spans.
			r = newLiveRec(rec.t0, rec.traced)
			r.spans = nil
		}
		t0, b0 := time.Now(), cpuTime()
		c, err := startCluster(sh, r, seed)
		t1, b1 := time.Now(), cpuTime()
		if err != nil {
			return nil, fmt.Errorf("start cluster: %w", err)
		}
		rec.spans.add("cluster.start", t0, t1, 0, 0)
		times = append(times, (b1 - b0).Seconds())
		walls = append(walls, t1.Sub(t0).Seconds())
		if !last {
			c.close()
			continue
		}
		rec.mu.Lock()
		for i, f := range c.fogs {
			rec.fogIdx[f.StreamAddr()] = i
		}
		rec.mu.Unlock()
		res.set("setup_s", median(times))
		res.set("setup_wall_s", median(walls))
		res.infof("cluster started %d times: cpu %s s; wall %s s", len(times), newDist(times), newDist(walls))
		return c, nil
	}
}

// counters are the program's own counters at one instant, summed over
// tiers.
type counters struct {
	at               time.Time
	cpu              time.Duration
	rt               runtimeCounters
	ticks            int64
	updateBits       int64
	fallbackBits     int64
	queueDrops       int64
	staleDeltas      int64
	keyframesApplied int64
	cellBatches      int64
}

func readCounters(c *cluster) counters {
	cs := c.cloud.Stats()
	k := counters{
		at: time.Now(), cpu: cpuTime(), rt: readRuntimeCounters(),
		ticks: cs.Ticks, updateBits: cs.UpdateBits, fallbackBits: cs.FallbackBits,
		queueDrops: cs.Resilience.SendQueueDrops,
	}
	for _, f := range c.fogs {
		fs := f.Stats()
		k.staleDeltas += int64(fs.StaleDeltas)
		k.keyframesApplied += fs.KeyframesApplied
		k.cellBatches += fs.CellBatches
	}
	return k
}

// liveSession is one finished player session.
type liveSession struct {
	s                *session
	err              error
	joined           time.Time
	gotFrame         bool
	stats            fognet.PlayerStats
	windowPlayerSecs float64
}

func playerConfig(sh liveShape, c *cluster, s *session, seed uint64) fognet.PlayerConfig {
	return fognet.PlayerConfig{
		PlayerID:     s.id,
		CloudAddr:    c.cloud.Addr(),
		Game:         game.Catalog()[sh.level-1],
		Seed:         seed*1_000_003 + uint64(s.id),
		Dial:         s.dial,
		Datagram:     sh.datagram,
		WrapDatagram: s.wrapDatagram,
	}
}

func runLive(rc *runConfig, w *workload) (*result, error) {
	sh := w.live
	res := newResult(w, rc.seed, rc.traced)
	rec := newLiveRec(time.Now(), rc.traced)
	c, err := setupCluster(sh, rec, rc.seed, res)
	if err != nil {
		return nil, err
	}
	defer c.close()

	var (
		sessions      []*liveSession
		genLate       []float64
		before, after counters
		prof          *cpuProfile
		samples       []cpuSample
		profErr       error
		heapOpen      uint64
		heapClose     uint64
	)
	// The window is the steady state: CPU, counters, the profile and
	// samples are taken inside it only. The heap is measured by a full
	// collection on either side of it, outside the measured CPU.
	openWindow := func() error {
		heapOpen = liveHeapAfterGC()
		var err error
		if prof, err = startProfile(rc.traced); err != nil {
			return err
		}
		before = readCounters(c)
		rec.measuring.Store(true)
		return nil
	}
	closeWindow := func() {
		rec.measuring.Store(false)
		after = readCounters(c)
		samples, profErr = prof.stop()
		heapClose = liveHeapAfterGC()
	}
	if sh.openLoop {
		sessions, genLate, err = runOpenLoop(rc, sh, c, rec, openWindow, closeWindow)
	} else {
		sessions, err = runStreaming(rc, sh, c, rec, openWindow, closeWindow)
	}
	if err != nil {
		return nil, err
	}
	if profErr != nil {
		return nil, profErr
	}
	res.set("heap_peak_mb", float64(max(heapOpen, heapClose))/1e6)
	res.infof("live heap after a full collection: %.3f MB at window open, %.3f MB at close",
		float64(heapOpen)/1e6, float64(heapClose)/1e6)
	window := after.at.Sub(before.at).Seconds()
	summarizeLive(res, sh, sessions, before, after, window)
	if len(genLate) > 0 {
		d := newDist(genLate)
		res.set("bench.gen_late_ms_p99", percentile(d.sorted, 99))
		res.infof("generator lateness ms: %s", d)
	}
	if !rc.traced {
		return res, nil
	}
	traceLive(res, rec, sh, sessions, samples, before, after, window)
	return res, writeTrace(rc, w, rec.spans, prof)
}

// runStreaming plays maxLive players for the whole run: join, warm up,
// then a window of rc.seconds.
func runStreaming(rc *runConfig, sh liveShape, c *cluster, rec *liveRec,
	openWindow func() error, closeWindow func()) ([]*liveSession, error) {
	gapCap := int(rc.duration().Seconds()*40) + 64
	var out []*liveSession
	var players []*fognet.PlayerClient
	for i := 0; i < maxLive; i++ {
		s := newSession(rec, int32(i+1), time.Now(), gapCap)
		ls := &liveSession{s: s}
		out = append(out, ls)
		pc, err := fognet.NewPlayerClient(playerConfig(sh, c, s, rc.seed))
		ls.joined = time.Now()
		ls.err = err
		players = append(players, pc)
	}
	defer func() {
		for i, pc := range players {
			if pc == nil {
				continue
			}
			pc.Close()
			out[i].stats = pc.Stats()
		}
	}()
	for _, ls := range out {
		if ls.err == nil {
			ls.gotFrame = waitFirst(ls.s)
		}
	}
	time.Sleep(streamWarmup)
	if err := openWindow(); err != nil {
		return out, err
	}
	start := time.Now()
	time.Sleep(rc.duration())
	end := time.Now()
	for _, ls := range out {
		ls.s.endSteady(end)
		if ls.err == nil {
			ls.windowPlayerSecs = end.Sub(start).Seconds()
		}
	}
	closeWindow()
	return out, nil
}

func waitFirst(s *session) bool {
	t := time.NewTimer(firstFrameTimeout)
	defer t.Stop()
	select {
	case <-s.first:
		return true
	case <-t.C:
		return false
	}
}

// runOpenLoop drives the seeded arrival schedule for rc.seconds, then
// waits for the last session to leave. An arrival due while maxLive
// players are live waits for a slot; its join time counts from when it was
// due.
func runOpenLoop(rc *runConfig, sh liveShape, c *cluster, rec *liveRec,
	openWindow func() error, closeWindow func()) ([]*liveSession, []float64, error) {
	rnd := rand.New(rand.NewPCG(rc.seed, 0x636c6f7564666f67))
	slots := make(chan struct{}, maxLive)
	var (
		mu   sync.Mutex
		out  []*liveSession
		late []float64
		wg   sync.WaitGroup
	)
	if err := openWindow(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	deadline := start.Add(rc.duration())
	due := start
	for i := 0; ; i++ {
		due = due.Add(time.Duration(float64(meanGap) * (0.75 + 0.5*rnd.Float64())))
		if due.After(deadline) {
			break
		}
		hold := holdMin + time.Duration(rnd.Float64()*float64(holdSpread))
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		s := newSession(rec, int32(1000+i), due, 64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			ls := playSession(rc, sh, c, rec, s, hold)
			mu.Lock()
			out = append(out, ls)
			mu.Unlock()
		}()
	}
	wg.Wait()
	closeWindow()
	return out, late, nil
}

// playSession is one open-loop player: join, wait for the first frame,
// play for hold, leave.
func playSession(rc *runConfig, sh liveShape, c *cluster, rec *liveRec, s *session, hold time.Duration) *liveSession {
	ls := &liveSession{s: s}
	pc, err := fognet.NewPlayerClient(playerConfig(sh, c, s, rc.seed))
	ls.joined = time.Now()
	joinSpan := rec.spans.add("player.join", s.due, ls.joined, 0, s.id)
	if err != nil {
		ls.err = err
		return ls
	}
	ls.gotFrame = waitFirst(s)
	if ls.gotFrame {
		rec.spans.add("player.first_frame", ls.joined, s.firstAt, joinSpan, s.id)
		time.Sleep(hold)
	}
	s.endSteady(time.Now())
	closeStart := time.Now()
	pc.Close()
	closed := time.Now()
	rec.spans.add("player.close", closeStart, closed, 0, s.id)
	rec.spans.add("session", s.due, closed, 0, s.id)
	ls.stats = pc.Stats()
	ls.windowPlayerSecs = closed.Sub(ls.joined).Seconds()
	return ls
}

// summarizeLive checks every session and computes the end-to-end metrics.
func summarizeLive(res *result, sh liveShape, sessions []*liveSession, before, after counters, window float64) {
	var (
		joinMs, firstMs, gapsMs []float64
		steadyN                 int
		steadySecs, playerSecs  float64
		winFrames               int
		winBytes                int64
	)
	for _, ls := range sessions {
		s := ls.s
		res.attempted++
		switch {
		case ls.err != nil:
			res.fail("session %d: join failed: %v", s.id, ls.err)
			continue
		case !ls.gotFrame:
			res.fail("session %d: no video frame within %v of joining", s.id, firstFrameTimeout)
			continue
		}
		s.mu.Lock()
		switch {
		case s.regressions > 0:
			res.fail("session %d: %d frames delivered with a tick older than their predecessor", s.id, s.regressions)
		case ls.stats.DecodeErrors > 0:
			res.fail("session %d: %d decode errors", s.id, ls.stats.DecodeErrors)
		}
		joinMs = append(joinMs, ms(ls.joined.Sub(s.due)))
		firstMs = append(firstMs, ms(s.firstAt.Sub(s.due)))
		gapsMs = append(gapsMs, s.gapsMs...)
		if !s.steadyFrom.IsZero() && s.steadyTo.After(s.steadyFrom) {
			steadyN += s.steadyN
			steadySecs += s.steadyTo.Sub(s.steadyFrom).Seconds()
		}
		winFrames += s.winFrames
		winBytes += s.winBytes
		s.mu.Unlock()
		playerSecs += ls.windowPlayerSecs
	}
	res.infof("window %.2fs, %d sessions, %.2f player-seconds, %d frames read by players", window, len(sessions), playerSecs, winFrames)
	if sh.openLoop {
		jd, fd := newDist(joinMs), newDist(firstMs)
		res.infof("join ms: %s", jd)
		res.infof("first frame ms: %s", fd)
		setAt(res, "join_ms_p50", jd, 50)
		setAt(res, "join_ms_p90", jd, 90)
		setAt(res, "first_frame_ms_p50", fd, 50)
		setAt(res, "first_frame_ms_p90", fd, 90)
	}
	gd := newDist(gapsMs)
	res.infof("frame gap ms: %s", gd)
	setAt(res, "frame_gap_ms_p99", gd, 99)
	if steadySecs > 0 {
		res.set("delivered_fps", float64(steadyN)/steadySecs)
	}
	if winFrames > 0 {
		cpuMs := ms(after.cpu - before.cpu)
		res.set("cpu_ms_per_frame", cpuMs/float64(winFrames))
		res.set("cpu_us_per_work", 1e3*cpuMs/float64(winFrames))
	}
	if playerSecs > 0 {
		cloudBits := (after.updateBits - before.updateBits) + (after.fallbackBits - before.fallbackBits)
		res.set("cloud_kbps_per_player", float64(cloudBits)/1e3/playerSecs)
		res.set("video_kbps_per_player", float64(winBytes)*8/1e3/playerSecs)
	}
	res.set("runtime.gc_cycles", float64(after.rt.gcCycles-before.rt.gcCycles)/window)
}

// setAt sets a percentile metric, noting in the report when fewer than
// minTail samples lie beyond it; with no samples the metric is n/a.
func setAt(res *result, name string, d dist, p float64) {
	v, ok := d.at(p)
	if d.n == 0 {
		res.na(name, "no samples")
		return
	}
	if !ok {
		res.infof("%s reported over n=%d: fewer than %d samples lie beyond p%g", name, d.n, minTail, p)
	}
	res.set(name, v)
}

// traceLive computes the per-layer metrics of a traced live run.
func traceLive(res *result, rec *liveRec, sh liveShape, sessions []*liveSession,
	samples []cpuSample, before, after counters, window float64) {
	var frames int
	var joinReply, attach, firstWait []float64
	var stall, decodeErrs, dgFrames, allFrames, dgLost, dgStale, dgFallbacks int64
	for _, ls := range sessions {
		s := ls.s
		s.mu.Lock()
		frames += s.winFrames
		if !s.joinReply.IsZero() {
			joinReply = append(joinReply, ms(s.joinReply.Sub(s.joinDial)))
		}
		if !s.attachReply.IsZero() {
			attach = append(attach, ms(s.attachReply.Sub(s.attachDial)))
			if !s.firstAt.IsZero() {
				firstWait = append(firstWait, ms(s.firstAt.Sub(s.attachReply)))
			}
		}
		s.mu.Unlock()
		st := ls.stats
		stall += st.StallMs
		decodeErrs += st.DecodeErrors
		dgFrames += st.DatagramFrames
		allFrames += st.Frames
		dgLost += st.DatagramLost
		dgStale += st.DatagramStale
		dgFallbacks += st.DatagramFallbacks
	}
	ticks := float64(after.ticks - before.ticks)
	perFrame := func(ns int64) float64 { return float64(ns) / 1e6 / float64(frames) }

	modules := bucketize(samples, moduleBucket)
	phases := bucketize(samples, func(st []string) string { return phaseBucket(st, livePhases) })
	reportViews(res, modules, phases)
	res.set("virtualworld.snapshot_ms_frame", perFrame(phases["virtualworld.snapshot"]))
	res.set("virtualworld.step_ms_tick", float64(phases["virtualworld.step"])/1e6/ticks)
	res.set("virtualworld.self_ms_frame", perFrame(modules["virtualworld"]))
	res.set("render.ms_frame", perFrame(phases["render"]))
	res.set("videocodec.encode_ms_frame", perFrame(phases["videocodec.encode"]))
	res.set("videocodec.decode_ms_frame", perFrame(phases["videocodec.decode"]))
	for _, m := range []string{"protocol", "transport", "fognet"} {
		res.set(m+".self_ms_frame", perFrame(modules[m]))
	}
	res.set("runtime.gc_ms_frame", perFrame(modules[bucketGC]))
	res.set("runtime.syscall_ms_frame", perFrame(modules[bucketSys]))
	res.set("other_ms_frame", perFrame(modules[bucketOther]))

	if sh.openLoop {
		setAt(res, "fognet.join_reply_ms_p50", newDist(joinReply), 50)
		setAt(res, "fognet.attach_ms_p50", newDist(attach), 50)
		setAt(res, "fognet.first_frame_wait_ms_p50", newDist(firstWait), 50)
		res.set("fognet.fog_keyframes_per_join",
			float64(after.keyframesApplied-before.keyframesApplied)/float64(len(sessions)))
		res.set("fognet.fog_cell_batches_per_tick", float64(after.cellBatches-before.cellBatches)/ticks)
		if allFrames > 0 {
			res.set("transport.dgram_frames_frac", float64(dgFrames)/float64(allFrames))
		}
		if dgFrames+dgLost > 0 {
			res.set("transport.dgram_lost_frac", float64(dgLost)/float64(dgFrames+dgLost))
		}
		res.set("transport.dgram_stale", float64(dgStale))
		res.set("transport.dgram_fallbacks", float64(dgFallbacks))
	}
	rec.mu.Lock()
	t2f, wr, lag, updB := newDist(rec.t2fMs), newDist(rec.updWrUs), newDist(rec.lagMs), rec.updB
	rec.mu.Unlock()
	res.infof("tick to frame ms: %s", t2f)
	res.infof("update write us: %s", wr)
	res.infof("update lag ms: %s", lag)
	setAt(res, "fognet.tick_to_frame_ms_p50", t2f, 50)
	setAt(res, "fognet.tick_to_frame_ms_p99", t2f, 99)
	setAt(res, "transport.update_write_us_p99", wr, 99)
	setAt(res, "transport.update_lag_ms_p99", lag, 99)
	res.set("transport.update_bytes_per_tick", float64(updB)/ticks)
	res.set("fognet.cloud_tick_rate_frac", ticks/(window/fognet.DefaultTickInterval.Seconds()))
	res.set("fognet.cloud_send_queue_drops", float64(after.queueDrops-before.queueDrops))
	res.set("fognet.fog_stale_deltas", float64(after.staleDeltas-before.staleDeltas))
	res.set("fognet.player_stall_ms", float64(stall))
	res.set("fognet.player_decode_errors", float64(decodeErrs))
	res.infof("spans recorded: %d", rec.spans.count())
}
