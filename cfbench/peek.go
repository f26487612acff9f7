package main

import (
	"encoding/binary"

	"cloudfog/internal/protocol"
)

// frameSink receives one call per complete protocol frame a streamPeek
// sees. tick is the world tick carried in the payload header (video
// frames, full-world update batches, AoI cell batches); hasTick is false
// for message types that carry none, or for a payload too short to hold
// one.
type frameSink interface {
	onFrame(typ protocol.MsgType, tick uint64, hasTick bool, size int)
}

// tickOffset returns the payload offset of the big-endian uint64 world
// tick for message types that carry one, or -1.
//
//   - MsgVideoFrame: the videocodec frame header is
//     type(1) quant(1) width(2) height(2) tick(8) len(4).
//   - MsgUpdateBatch and MsgCellBatch: epoch(8) tick(8) ...
func tickOffset(t protocol.MsgType) int {
	switch t {
	case protocol.MsgVideoFrame:
		return 6
	case protocol.MsgUpdateBatch, protocol.MsgCellBatch:
		return 8
	}
	return -1
}

// streamPeek follows the length-prefixed protocol frame stream of one
// direction of one connection, fed in whatever chunks the socket
// delivers. It never buffers payload bytes — it only collects the 5-byte
// frame header and the 8 tick bytes — so it adds no allocation and no
// copy to the read or write it observes. Not safe for concurrent use: each
// direction of each connection owns one.
type streamPeek struct {
	hdr    [protocol.HeaderLen]byte
	hn     int // header bytes collected for the current frame
	typ    protocol.MsgType
	plen   int // payload length of the current frame
	pos    int // payload bytes consumed so far
	toff   int // tick offset in the payload, or -1
	tick   uint64
	broken bool // a length beyond protocol.MaxPayload: stop parsing
}

// feed consumes the next chunk of the stream, calling sink.onFrame for
// every frame whose last byte the chunk contains.
func (p *streamPeek) feed(b []byte, sink frameSink) {
	for len(b) > 0 && !p.broken {
		if p.hn < len(p.hdr) {
			n := copy(p.hdr[p.hn:], b)
			p.hn += n
			b = b[n:]
			if p.hn < len(p.hdr) {
				return
			}
			p.plen = int(binary.BigEndian.Uint32(p.hdr[:4]))
			if p.plen > protocol.MaxPayload {
				p.broken = true
				return
			}
			p.typ = protocol.MsgType(p.hdr[4])
			p.pos, p.tick = 0, 0
			p.toff = tickOffset(p.typ)
			if p.plen == 0 {
				p.finish(sink)
			}
			continue
		}
		n := p.plen - p.pos
		if n > len(b) {
			n = len(b)
		}
		if p.toff >= 0 {
			lo, hi := max(p.pos, p.toff), min(p.pos+n, p.toff+8)
			for off := lo; off < hi; off++ {
				p.tick = p.tick<<8 | uint64(b[off-p.pos])
			}
		}
		p.pos += n
		b = b[n:]
		if p.pos == p.plen {
			p.finish(sink)
		}
	}
}

func (p *streamPeek) finish(sink frameSink) {
	hasTick := p.toff >= 0 && p.plen >= p.toff+8
	sink.onFrame(p.typ, p.tick, hasTick, p.plen)
	p.hn = 0
}
