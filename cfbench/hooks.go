package main

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/transport"
)

// liveRec collects what the hooks observe during one live run. The
// player-side hooks are always installed; the cloud and fog taps only in
// a traced run.
type liveRec struct {
	t0     time.Time
	traced bool
	spans  *spanLog // nil unless traced
	// measuring is true while the measurement window is open; samples
	// outside it (warm-up, drain) are not kept.
	measuring atomic.Bool

	mu      sync.Mutex
	writes  map[string]*tickRing // cloud write time per tick, keyed by the fog side's local address
	fogs    []*fogTap
	fogIdx  map[string]int // fog stream address → index in fogs
	updWrUs []float64      // cloud Write durations on fog connections
	updB    int64          // update-stream bytes written by the cloud
	lagMs   []float64      // cloud write → fog read of the same tick
	t2fMs   []float64      // fog reads tick T → player reads a frame with Tick ≥ T
}

func newLiveRec(t0 time.Time, traced bool) *liveRec {
	r := &liveRec{t0: t0, traced: traced, writes: map[string]*tickRing{}, fogIdx: map[string]int{}}
	if traced {
		r.spans = newSpanLog(t0)
	}
	return r
}

// tickRing remembers when each of the last len ticks was first seen.
type tickRing [1024]struct {
	tick uint64
	at   time.Time
}

func (r *tickRing) put(tick uint64, at time.Time) {
	e := &r[tick%uint64(len(r))]
	if e.tick != tick || e.at.IsZero() {
		e.tick, e.at = tick, at
	}
}

func (r *tickRing) get(tick uint64) (time.Time, bool) {
	e := &r[tick%uint64(len(r))]
	return e.at, e.tick == tick && !e.at.IsZero()
}

// fogTap is one fog node's view of its update stream.
type fogTap struct {
	reads    tickRing
	lastTick uint64
}

// ---- player side --------------------------------------------------------

// chanState is the stale-frame check of one video channel (the session's
// TCP connection or its datagram socket): ticks must never decrease.
type chanState struct {
	seen bool
	last uint64
}

// session is one player session as the hooks see it.
type session struct {
	id    int32
	rec   *liveRec
	due   time.Time
	first chan struct{} // closed at the first video frame

	mu          sync.Mutex
	joinDial    time.Time // control connection dial started
	joinReply   time.Time // JoinReply read
	attachDial  time.Time // dial of the connection that attached
	attachReply time.Time // AttachReply read
	fogIdx      int       // serving fog, -1 when unknown (cloud fallback)
	firstAt     time.Time
	lastAt      time.Time
	frames      int
	winFrames   int   // frames read inside the window
	winBytes    int64 // video payload bytes read inside the window
	steadyFrom  time.Time
	steadyTo    time.Time
	steadyN     int // frames after steadyFrom
	gapsMs      []float64
	regressions int // frames whose tick went backwards on their channel
	staleDgrams int // datagrams at or behind the newest sequence (not delivered)
	t2fNext     uint64
}

func newSession(rec *liveRec, id int32, due time.Time, gapCap int) *session {
	return &session{id: id, rec: rec, due: due, first: make(chan struct{}), fogIdx: -1,
		gapsMs: make([]float64, 0, gapCap)}
}

// dial is the PlayerConfig.Dial hook: it dials TCP and wraps the
// connection in a header peek.
func (s *session) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	start := time.Now()
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &playerConn{Conn: c, s: s, addr: addr, dialAt: start}, nil
}

// wrapDatagram is the PlayerConfig.WrapDatagram hook.
func (s *session) wrapDatagram(dc transport.DatagramConn) transport.DatagramConn {
	return &playerDgram{DatagramConn: dc, s: s}
}

// frame records one video frame read at the player's boundary.
func (s *session) frame(ch *chanState, tick uint64, size int, now time.Time) {
	rec := s.rec
	measuring := rec.measuring.Load()
	s.mu.Lock()
	if ch.seen && tick < ch.last {
		s.regressions++
	}
	ch.seen, ch.last = true, tick
	first := s.frames == 0
	if first {
		s.firstAt = now
		close(s.first)
	}
	if measuring {
		if !first && !s.lastAt.IsZero() {
			s.gapsMs = append(s.gapsMs, ms(now.Sub(s.lastAt)))
		}
		if s.steadyFrom.IsZero() {
			s.steadyFrom = now
		} else {
			s.steadyN++
		}
		s.winFrames++
		s.winBytes += int64(size)
	}
	s.frames++
	s.lastAt = now
	fog := s.fogIdx
	s.mu.Unlock()
	if rec.traced {
		rec.tickToFrame(s, fog, tick, now)
	}
}

// endSteady closes the session's steady-state interval at t (the session
// is about to close, or the window is).
func (s *session) endSteady(t time.Time) {
	s.mu.Lock()
	if s.steadyTo.IsZero() {
		s.steadyTo = t
	}
	s.mu.Unlock()
}

// playerConn peeks at the frames a player reads from one connection.
type playerConn struct {
	net.Conn
	s      *session
	addr   string
	dialAt time.Time
	in     streamPeek
	ch     chanState
	rs, re time.Time // bounds of the Read call being parsed
}

func (c *playerConn) Read(b []byte) (int, error) {
	c.rs = time.Now()
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.re = time.Now()
		c.in.feed(b[:n], c)
	}
	return n, err
}

func (c *playerConn) onFrame(t protocol.MsgType, tick uint64, hasTick bool, size int) {
	s := c.s
	switch t {
	case protocol.MsgJoinReply:
		s.mu.Lock()
		s.joinDial, s.joinReply = c.dialAt, c.re
		s.mu.Unlock()
		s.rec.spans.add("player.read.join_reply", c.rs, c.re, 0, s.id)
	case protocol.MsgAttachReply:
		idx := s.rec.fogIndex(c.addr)
		s.mu.Lock()
		s.attachDial, s.attachReply, s.fogIdx = c.dialAt, c.re, idx
		s.mu.Unlock()
		s.rec.spans.add("player.read.attach_reply", c.rs, c.re, 0, s.id)
	case protocol.MsgVideoFrame:
		if hasTick {
			s.frame(&c.ch, tick, size, c.re)
		}
		s.rec.spans.add("player.read.frame", c.rs, c.re, 0, s.id)
	}
}

// playerDgram peeks at the datagrams a player reads from its UDP socket.
// A frame datagram whose sequence is not beyond the newest seen is one
// the receiver drops as stale or duplicate; it is counted, not delivered.
type playerDgram struct {
	transport.DatagramConn
	s      *session
	hdr    transport.Header
	ch     chanState
	maxSeq uint64
	seqOK  bool
}

func (d *playerDgram) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	rs := time.Now()
	n, from, err := d.DatagramConn.ReadFromUDPAddrPort(b)
	if n <= 0 {
		return n, from, err
	}
	if _, perr := transport.ParseHeader(b[:n], &d.hdr); perr != nil || d.hdr.Kind != transport.DgramFrame {
		return n, from, err
	}
	now := time.Now()
	if d.seqOK && d.hdr.Seq <= d.maxSeq {
		d.s.mu.Lock()
		d.s.staleDgrams++
		d.s.mu.Unlock()
		return n, from, err
	}
	d.seqOK, d.maxSeq = true, d.hdr.Seq
	d.s.frame(&d.ch, d.hdr.Tick, n-transport.HeaderLen, now)
	d.s.rec.spans.add("player.read.dgram_frame", rs, now, 0, d.s.id)
	return n, from, err
}

// ---- cloud and fog taps (traced runs) -----------------------------------

func (r *liveRec) fogIndex(addr string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.fogIdx[addr]; ok {
		return i
	}
	return -1
}

// tickToFrame samples, for every tick the serving fog read since the
// session's previous frame, the time until this frame (Tick ≥ T) reached
// the player.
func (r *liveRec) tickToFrame(s *session, fog int, tick uint64, now time.Time) {
	if fog < 0 || !r.measuring.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ft := r.fogs[fog]
	from := s.t2fNext
	if tick < from {
		return // an older frame on another channel: its ticks are matched
	}
	if from == 0 || tick-from > uint64(len(ft.reads)) {
		from = tick // first frame of the session: nothing pending
	}
	for t := from; t <= tick; t++ {
		if at, ok := ft.reads.get(t); ok {
			r.t2fMs = append(r.t2fMs, ms(now.Sub(at)))
		}
	}
	s.t2fNext = tick + 1
}

// wrapCloudConn is the CloudConfig.WrapConn hook of a traced run.
func (r *liveRec) wrapCloudConn(c net.Conn) net.Conn {
	return &cloudConn{Conn: c, rec: r, key: c.RemoteAddr().String()}
}

// cloudConn times the cloud's writes and peeks at the update batches in
// them.
type cloudConn struct {
	net.Conn
	rec *liveRec
	key string

	mu   sync.Mutex
	out  streamPeek
	ring *tickRing
	ws   time.Time
	upd  bool
	updB int64
}

func (c *cloudConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	n, err := c.Conn.Write(b)
	end := time.Now()
	c.ws, c.upd, c.updB = start, false, 0
	c.out.feed(b[:n], c)
	if c.upd {
		c.rec.noteUpdateWrite(start, end, c.updB)
	}
	return n, err
}

func (c *cloudConn) onFrame(t protocol.MsgType, tick uint64, hasTick bool, size int) {
	if (t != protocol.MsgUpdateBatch && t != protocol.MsgCellBatch) || !hasTick {
		return
	}
	c.upd = true
	c.updB += int64(protocol.HeaderLen + size)
	r := c.rec
	r.mu.Lock()
	if c.ring == nil {
		c.ring = &tickRing{}
		r.writes[c.key] = c.ring
	}
	c.ring.put(tick, c.ws)
	r.mu.Unlock()
}

func (r *liveRec) noteUpdateWrite(start, end time.Time, bytes int64) {
	r.spans.add("cloud.write.update", start, end, 0, 0)
	if !r.measuring.Load() {
		return
	}
	r.mu.Lock()
	r.updWrUs = append(r.updWrUs, float64(end.Sub(start).Nanoseconds())/1e3)
	r.updB += bytes
	r.mu.Unlock()
}

// fogDial returns the FogConfig.Dial hook of fog i in a traced run.
func (r *liveRec) fogDial(i int) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	r.mu.Lock()
	for len(r.fogs) <= i {
		r.fogs = append(r.fogs, &fogTap{})
	}
	tap := r.fogs[i]
	r.mu.Unlock()
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return &fogConn{Conn: c, rec: r, tap: tap, key: c.LocalAddr().String()}, nil
	}
}

// fogConn peeks at the update batches a fog node reads from the cloud.
type fogConn struct {
	net.Conn
	rec    *liveRec
	tap    *fogTap
	key    string
	in     streamPeek
	rs, re time.Time
}

func (c *fogConn) Read(b []byte) (int, error) {
	c.rs = time.Now()
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.re = time.Now()
		c.in.feed(b[:n], c)
	}
	return n, err
}

func (c *fogConn) onFrame(t protocol.MsgType, tick uint64, hasTick bool, size int) {
	if (t != protocol.MsgUpdateBatch && t != protocol.MsgCellBatch) || !hasTick {
		return
	}
	r := c.rec
	measuring := r.measuring.Load()
	r.mu.Lock()
	defer r.mu.Unlock()
	if tick == c.tap.lastTick {
		return // a later cell batch of a tick already seen
	}
	c.tap.lastTick = tick
	c.tap.reads.put(tick, c.re)
	if wr := r.writes[c.key]; wr != nil && measuring {
		if w, ok := wr.get(tick); ok {
			r.lagMs = append(r.lagMs, ms(c.re.Sub(w)))
		}
	}
	r.spans.add("fog.read.update", c.rs, c.re, 0, 0)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
