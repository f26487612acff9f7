// Fixture for the conndeadline analyzer: package name "fognet" puts it
// in the live-networking set.
package fognet

import (
	"bytes"
	"net"
	"time"

	"cloudfog/internal/protocol"
)

// Positive: a bare read blocks forever on a stalled peer.
func bareRead(conn net.Conn, buf []byte) (int, error) {
	return conn.Read(buf) // want `conn\.Read on a net\.Conn without a preceding SetReadDeadline`
}

// Positive: a bare write blocks forever on a full send buffer.
func bareWrite(conn net.Conn, buf []byte) (int, error) {
	return conn.Write(buf) // want `conn\.Write on a net\.Conn without a preceding SetWriteDeadline`
}

// Positive: a read deadline does not bless a write.
func wrongKind(conn net.Conn, buf []byte) (int, error) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	return conn.Write(buf) // want `conn\.Write on a net\.Conn without a preceding SetWriteDeadline`
}

// Positive: the protocol helpers drive conn I/O just the same.
func bareHello(conn net.Conn) error {
	return protocol.WriteMessage(conn, protocol.MsgBye, nil) // want `WriteMessage drives conn conn without a preceding SetWriteDeadline`
}

// Positive: a write deadline does not bless a handshake read.
func bareReply(conn net.Conn) (protocol.MsgType, []byte, error) {
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	return protocol.ReadMessageInto(conn, nil) // want `ReadMessageInto drives conn conn without a preceding SetReadDeadline`
}

// Positive: a deadline set in the enclosing function does not bless a
// spawned closure — it may be cleared before the goroutine runs.
func closureEscapes(conn net.Conn, buf []byte) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	go func() {
		conn.Read(buf) // want `conn\.Read on a net\.Conn without a preceding SetReadDeadline`
	}()
}

// Negative: deadline then op, the required shape.
func guardedRead(conn net.Conn, buf []byte) (int, error) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	return conn.Read(buf)
}

// Negative: SetDeadline covers both directions.
func guardedBoth(conn net.Conn, buf []byte) error {
	conn.SetDeadline(time.Now().Add(time.Second))
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	_, err := conn.Read(buf)
	return err
}

// Negative: the handshake read under a deadline.
func guardedHandshake(conn net.Conn) (protocol.MsgType, []byte, error) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	return protocol.ReadMessageInto(conn, nil)
}

// Negative: the handshake write under a deadline.
func guardedHello(conn net.Conn) error {
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	return protocol.WriteMessage(conn, protocol.MsgBye, nil)
}

// Negative: Read/Write on things that are not conns are out of scope.
func notAConn(buf *bytes.Buffer, p []byte) (int, error) {
	return buf.Read(p)
}

// Negative: a documented, supervised blocking read.
func supervisedLoop(conn net.Conn, buf []byte) error {
	for {
		//lint:ignore conndeadline heartbeat eviction closes conn on liveness failure, unblocking this read
		if _, err := conn.Read(buf); err != nil {
			return err
		}
	}
}
