package fognet

import (
	"net"
	"sync"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/protocol"
	"cloudfog/internal/render"
	"cloudfog/internal/videocodec"
	"cloudfog/internal/virtualworld"
)

// viewSource yields what one frame of a video session draws: the world
// tick, the player's viewport, and the entities inside it sorted by ID,
// appended to the session's scratch slice. A fog node serves its replica,
// the cloud serves the authoritative world (the fallback path for players
// without a nearby supernode). The query costs O(entities in view), so
// the source's lock is held only that long.
type viewSource interface {
	appendView(dst []virtualworld.Entity, player int) (tick uint64, v virtualworld.Viewport, vis []virtualworld.Entity)
}

// framePipeline is one video session's per-frame work and its reused
// state: the view query appends into one entity slice, the renderer
// rasterizes into one framebuffer, and the encoder compresses into one
// EncodedFrame — nothing allocates once the scratch has grown.
type framePipeline struct {
	renderer *render.Renderer
	encoder  *videocodec.Encoder
	frame    *render.Frame
	vis      []virtualworld.Entity
	ef       videocodec.EncodedFrame
}

// newFramePipeline builds the pipeline for a quality level.
func newFramePipeline(level game.QualityLevel) *framePipeline {
	p := &framePipeline{frame: &render.Frame{}}
	p.setLevel(level)
	return p
}

// setLevel switches resolution and bitrate; the next frame is a keyframe
// of the new size.
func (p *framePipeline) setLevel(level game.QualityLevel) {
	p.renderer = render.NewRenderer(render.ResolutionForLevel(int(level)))
	p.encoder = videocodec.NewEncoder(game.MustQuality(level).BitrateKbps)
}

// next renders and encodes player's current view from source into p.ef
// and returns the world tick it depicts.
func (p *framePipeline) next(source viewSource, player int) uint64 {
	tick, v, vis := source.appendView(p.vis[:0], player)
	p.vis = vis
	p.renderer.RenderVisible(tick, v, vis, p.frame)
	p.encoder.EncodeInto(p.frame, &p.ef)
	return tick
}

// streamCounters receives the session's egress accounting.
type streamCounters interface {
	addFrame(bits int)
}

// actionSink accepts player inputs that arrive on a video session — the
// outage escape hatch: a player whose cloud control link is down routes
// actions through its serving supernode, which forwards them upstream
// immediately or buffers them (bounded) until its own cloud link
// recovers. The cloud's fallback sessions feed the authoritative world
// directly. Returns false when the action was dropped.
type actionSink interface {
	submitAction(a virtualworld.Action) bool
}

// runVideoSession streams rendered, encoded frames for one attached player
// until the connection breaks, a Bye arrives, or stop closes. It handles
// the receiver-driven RateChange messages of §3.3 and the optional
// datagram upgrade: a MsgDatagramRequest is answered (via offer, or
// refused when offer is nil) on the session connection, and once the
// player's hello registers, frames ride UDP while this connection keeps
// carrying control. Every frame write carries writeTimeout as a deadline,
// so a player that stops reading cannot pin the session goroutine. The
// caller owns conn and the attach handshake; wg tracks the internal
// reader goroutine.
//
// The 30 fps loop is the fog tier's hot path, so it is allocation-free in
// steady state: framePipeline renders and encodes into reused scratch,
// and the encoded frame plus its header — the 5-byte stream header or the
// 33-byte datagram header — are appended into one pooled buffer flushed
// with a single Write. The pooled buffer is returned only after the session
// ends — per-frame it is simply truncated and refilled, never handed to
// another goroutine.
func runVideoSession(
	conn net.Conn,
	playerID int32,
	level game.QualityLevel,
	frameInterval time.Duration,
	writeTimeout time.Duration,
	source viewSource,
	counters streamCounters,
	actions actionSink,
	offer dgramOffer,
	stop <-chan struct{},
	wg *sync.WaitGroup,
) {
	if level < 1 || level > game.NumQualityLevels {
		level = 3
	}
	// Rate-change and datagram-request messages arrive asynchronously
	// with the frame clock; the frame loop owns all writes on conn, so
	// the reader only signals.
	rateCh := make(chan game.QualityLevel, 1)
	dgramCh := make(chan struct{}, 1)
	readDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(readDone)
		fr := protocol.NewFrameReader(conn)
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				return
			}
			switch typ {
			case protocol.MsgRateChange:
				rc, rerr := protocol.UnmarshalRateChange(payload)
				if rerr == nil && rc.QualityLevel >= 1 && rc.QualityLevel <= game.NumQualityLevels {
					select {
					case rateCh <- game.QualityLevel(rc.QualityLevel):
					default:
					}
				}
			case protocol.MsgAction:
				// Outage-window input rerouting: only the attached
				// player's own actions are accepted.
				am, aerr := protocol.UnmarshalActionMsg(payload)
				if aerr != nil || am.Action.Player != int(playerID) {
					continue
				}
				actions.submitAction(am.Action)
			case protocol.MsgDatagramRequest:
				req, derr := protocol.UnmarshalDatagramRequest(payload)
				if derr != nil || req.PlayerID != playerID {
					continue
				}
				select {
				case dgramCh <- struct{}{}:
				default:
				}
			case protocol.MsgBye:
				return
			}
		}
	}()

	pipe := newFramePipeline(level)
	out := protocol.GetBuffer()
	defer protocol.PutBuffer(out)
	// sess is the live datagram upgrade, nil until a request is granted;
	// dgramLive flips when the player's hello lands and frames actually
	// switch to UDP.
	var sess *dgramSession
	dgramLive := false
	defer func() {
		if sess != nil {
			offer.endDatagram(sess)
		}
	}()
	ticker := time.NewTicker(frameInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-readDone:
			return
		case newLevel := <-rateCh:
			if newLevel != level {
				level = newLevel
				pipe.setLevel(level)
			}
		case <-dgramCh:
			//lint:ignore epochstamp refusal default: overwritten by the stamped offer when the datagram path is up
			reply := protocol.DatagramReply{Reason: "datagram video unavailable"}
			if offer != nil && sess == nil {
				reply, sess = offer.offerDatagram()
			}
			var err error
			out.B, err = protocol.AppendMessage(out.B[:0], protocol.MsgDatagramReply, &reply)
			if err != nil {
				return
			}
			if writeTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			}
			if _, err := conn.Write(out.B); err != nil {
				return
			}
		case <-ticker.C:
			if sess != nil && !dgramLive {
				if _, ok := sess.remote(); ok {
					// The hello landed: this frame is the first to ride
					// UDP. Restart the GOP so the receiver — which read
					// none of the TCP frames in flight during the
					// handshake — decodes from the very first datagram.
					dgramLive = true
					pipe.encoder.ForceKeyframe()
				}
			}
			tick := pipe.next(source, int(playerID))
			if sess != nil {
				var sent bool
				out.B, sent = sess.sendFrame(out.B, &pipe.ef, tick)
				if sent {
					counters.addFrame(pipe.ef.SizeBits())
					continue
				}
				// No hello yet, oversized frame, or a socket error:
				// this frame rides the reliable stream instead.
			}
			var err error
			out.B, err = protocol.AppendMessage(out.B[:0], protocol.MsgVideoFrame, &pipe.ef)
			if err != nil {
				return
			}
			if writeTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			}
			if _, err := conn.Write(out.B); err != nil {
				return
			}
			counters.addFrame(pipe.ef.SizeBits())
		}
	}
}
