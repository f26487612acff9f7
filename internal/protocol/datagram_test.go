package protocol

import (
	"bytes"
	"testing"
)

func TestDatagramRequestRoundTrip(t *testing.T) {
	m := DatagramRequest{PlayerID: 4711}
	got, err := UnmarshalDatagramRequest(m.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("round trip %+v, want %+v", got, m)
	}
}

func TestDatagramReplyRoundTrip(t *testing.T) {
	for _, m := range []DatagramReply{
		{OK: true, Addr: "127.0.0.1:9999", Token: 0xfeedface, Epoch: 3},
		{OK: false, Reason: "datagram video disabled"},
		{},
	} {
		got, err := UnmarshalDatagramReply(m.AppendTo(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Errorf("round trip %+v, want %+v", got, m)
		}
	}
}

func TestDatagramUnmarshalRejectsTruncated(t *testing.T) {
	full := DatagramReply{OK: true, Addr: "x", Reason: "y"}.AppendTo(nil)
	for i := 0; i < len(full); i++ {
		if _, err := UnmarshalDatagramReply(full[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	if _, err := UnmarshalDatagramRequest(nil); err == nil {
		t.Error("empty request accepted")
	}
}

func TestDatagramMsgTypeNames(t *testing.T) {
	if MsgDatagramRequest.String() != "datagram-request" ||
		MsgDatagramReply.String() != "datagram-reply" {
		t.Error("missing String() names for datagram messages")
	}
}

// FuzzStreamFramingParity pins the stream framing byte-for-byte: for any
// message type and payload, AppendFrame over the encoded payload and
// AppendMessage encoding in place must produce the same bytes, and the
// frame reader must recover the message. The TCP transport carries
// control messages, checkpoints, and resume handshakes — none of them may
// shift by a bit.
func FuzzStreamFramingParity(f *testing.F) {
	f.Add(uint8(MsgVideoFrame), []byte("frame"))
	f.Add(uint8(MsgBye), []byte{})
	f.Add(uint8(MsgCheckpoint), bytes.Repeat([]byte{0xA5}, 1024))
	f.Add(uint8(MsgDatagramReply), DatagramReply{OK: true, Addr: "a"}.AppendTo(nil))
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		appended, err := AppendFrame(nil, MsgType(typ), payload)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		inPlace, err := AppendMessage(nil, MsgType(typ), rawPayload(payload))
		if err != nil {
			t.Fatalf("AppendMessage: %v", err)
		}
		if !bytes.Equal(appended, inPlace) {
			t.Fatalf("AppendFrame %x differs from AppendMessage %x", appended, inPlace)
		}
		fr := NewFrameReader(bytes.NewReader(appended))
		ftyp, fpayload, err := fr.Next()
		if err != nil || ftyp != MsgType(typ) || !bytes.Equal(fpayload, payload) {
			t.Fatalf("FrameReader: %v %v", ftyp, err)
		}
	})
}
