package main

import (
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cloudfog/internal/protocol"
	"cloudfog/internal/transport"
	"cloudfog/internal/videocodec"
)

type seenFrame struct {
	typ     protocol.MsgType
	tick    uint64
	hasTick bool
	size    int
}

type frameLog []seenFrame

func (l *frameLog) onFrame(t protocol.MsgType, tick uint64, hasTick bool, size int) {
	*l = append(*l, seenFrame{t, tick, hasTick, size})
}

// testStream is a frame stream as the cloud and fogs write it, with the
// frames the peek must report.
func testStream(t *testing.T) ([]byte, frameLog) {
	t.Helper()
	var buf []byte
	var want frameLog
	add := func(typ protocol.MsgType, tick uint64, hasTick bool, n0 int) {
		want = append(want, seenFrame{typ, tick, hasTick, len(buf) - n0 - protocol.HeaderLen})
	}
	frame := func(typ protocol.MsgType, payload []byte) {
		n0 := len(buf)
		var err error
		if buf, err = protocol.AppendFrame(buf, typ, payload); err != nil {
			t.Fatal(err)
		}
		add(typ, 0, false, n0)
	}
	message := func(typ protocol.MsgType, m protocol.Appender, tick uint64) {
		n0 := len(buf)
		var err error
		if buf, err = protocol.AppendMessage(buf, typ, m); err != nil {
			t.Fatal(err)
		}
		add(typ, tick, true, n0)
	}
	frame(protocol.MsgJoinReply, protocol.JoinReply{OK: true, Epoch: 1, Tick: 9}.Marshal())
	frame(protocol.MsgBye, nil)
	frame(protocol.MsgAttachReply, protocol.AttachReply{OK: true}.Marshal())
	message(protocol.MsgVideoFrame, &videocodec.EncodedFrame{Width: 288, Height: 216, Tick: 0x0102030405060708,
		Data: make([]byte, 300)}, 0x0102030405060708)
	message(protocol.MsgUpdateBatch, protocol.UpdateBatch{Epoch: 3, Tick: 77}, 77)
	message(protocol.MsgCellBatch, protocol.CellBatch{Epoch: 3, Tick: 78, Cell: 5, Keyframe: true}, 78)
	message(protocol.MsgVideoFrame, &videocodec.EncodedFrame{Tick: 1 << 40}, 1<<40)
	return buf, want
}

func TestStreamPeekEverySplit(t *testing.T) {
	stream, want := testStream(t)
	for i := 0; i <= len(stream); i++ {
		var p streamPeek
		var got frameLog
		p.feed(stream[:i], &got)
		p.feed(stream[i:], &got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split at %d: got %+v, want %+v", i, got, want)
		}
	}
	var p streamPeek
	var got frameLog
	for i := range stream {
		p.feed(stream[i:i+1], &got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("byte at a time: got %+v, want %+v", got, want)
	}
}

func TestStreamPeekStopsOnOversizedLength(t *testing.T) {
	var p streamPeek
	var got frameLog
	p.feed([]byte{0xff, 0xff, 0xff, 0xff, byte(protocol.MsgVideoFrame), 1, 2, 3}, &got)
	if !p.broken || len(got) != 0 {
		t.Fatalf("broken=%v frames=%v, want a stopped peek and no frames", p.broken, got)
	}
}

// fakeDgram replays datagrams to a reader.
type fakeDgram struct {
	transport.DatagramConn
	queue [][]byte
}

func (f *fakeDgram) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	d := f.queue[0]
	f.queue = f.queue[1:]
	return copy(b, d), netip.AddrPort{}, nil
}

func datagram(kind uint8, seq, tick uint64, payload int) []byte {
	b := transport.Header{Kind: kind, Token: 7, Epoch: 1, Seq: seq, Tick: tick}.AppendTo(nil)
	return append(b, make([]byte, payload)...)
}

func TestDatagramPeek(t *testing.T) {
	rec := newLiveRec(time.Now(), false)
	rec.measuring.Store(true)
	s := newSession(rec, 1, time.Now(), 16)
	full := datagram(transport.DgramFrame, 5, 50, 10)
	f := &fakeDgram{}
	// A datagram cut anywhere inside its header is not a frame.
	for i := 0; i < transport.HeaderLen; i++ {
		f.queue = append(f.queue, full[:i])
	}
	f.queue = append(f.queue,
		datagram(transport.DgramHello, 1, 0, 0), // not a frame
		full,                                    // delivered
		datagram(transport.DgramFrame, 5, 50, 10), // duplicate: not delivered
		datagram(transport.DgramFrame, 4, 60, 10), // reordered: not delivered
		datagram(transport.DgramFrame, 6, 49, 10), // fresh but an older tick
		datagram(transport.DgramFrame, 7, 51, 10),
	)
	d := s.wrapDatagram(f)
	buf := make([]byte, 2048)
	for len(f.queue) > 0 {
		d.ReadFromUDPAddrPort(buf)
	}
	if s.frames != 3 || s.staleDgrams != 2 || s.regressions != 1 || s.winBytes != 30 {
		t.Fatalf("frames=%d stale=%d regressions=%d bytes=%d, want 3, 2, 1, 30",
			s.frames, s.staleDgrams, s.regressions, s.winBytes)
	}
}

// pipeConn serves a fixed byte stream to Read.
type pipeConn struct {
	net.Conn
	data []byte
	at   int
	n    int
}

func (p *pipeConn) Read(b []byte) (int, error) {
	n := copy(b[:min(len(b), p.n)], p.data[p.at:])
	p.at = (p.at + n) % len(p.data)
	return n, nil
}

func TestPlayerPeekAllocationFree(t *testing.T) {
	stream, _ := testStream(t)
	rec := newLiveRec(time.Now(), false)
	rec.measuring.Store(true)
	s := newSession(rec, 1, time.Now(), 1<<16)
	c := &playerConn{Conn: &pipeConn{data: stream, n: 97}, s: s}
	buf := make([]byte, 4096)
	c.Read(buf) // first frame closes s.first
	if a := testing.AllocsPerRun(1000, func() { c.Read(buf) }); a != 0 {
		t.Fatalf("player read hook allocates %.1f times per read", a)
	}
}
