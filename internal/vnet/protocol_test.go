package vnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"freemeasure/internal/ethernet"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello overlay")
	if err := writeMessage(&buf, msgFrame, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgFrame || !bytes.Equal(got, payload) {
		t.Fatalf("typ=%d payload=%q", typ, got)
	}
}

func TestMessageEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMessage(&buf, msgAck, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readMessage(&buf)
	if err != nil || typ != msgAck || len(got) != 0 {
		t.Fatalf("typ=%d len=%d err=%v", typ, len(got), err)
	}
}

func TestMessageOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMessage(&buf, msgFrame, make([]byte, maxMessage+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
	// Forged oversize length on the wire is rejected by the reader.
	buf.Reset()
	buf.Write([]byte{msgFrame, 0xff, 0xff, 0xff, 0xff})
	if _, _, err := readMessage(&buf); err == nil {
		t.Fatal("oversize length accepted by reader")
	}
}

func TestMessageTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	writeMessage(&buf, msgFrame, []byte("full message"))
	raw := buf.Bytes()[:buf.Len()-3] // cut mid-payload
	_, _, err := readMessage(bytes.NewReader(raw))
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
}

// dialRaw opens a raw TCP connection to the daemon's listener.
func dialRaw(t *testing.T, d *Daemon) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", d.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestDaemonRejectsGarbageHandshake(t *testing.T) {
	d := NewDaemon("victim")
	if _, err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := dialRaw(t, d)
	conn.Write([]byte("GET / HTTP/1.1\r\n\r\nlots of garbage that is not a hello"))
	// The daemon must drop the connection without registering a link.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // closed by daemon (or deadline, checked below)
		}
	}
	if peers := d.Peers(); len(peers) != 0 {
		t.Fatalf("garbage handshake registered peers: %v", peers)
	}
}

func TestDaemonRejectsWrongFirstMessage(t *testing.T) {
	d := NewDaemon("victim")
	if _, err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := dialRaw(t, d)
	// A well-formed message of the wrong type instead of hello.
	if err := writeMessage(conn, msgFrame, []byte{8, 0, 0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(d.Peers()) == 0 {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.Fatal("non-hello first message registered a peer")
	}
}

func TestDaemonSurvivesMalformedFrames(t *testing.T) {
	// A properly-handshaked peer that then sends junk frame payloads must
	// not crash the daemon or corrupt other links.
	d := NewDaemon("victim")
	if _, err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := dialRaw(t, d)
	if err := writeMessage(conn, msgHello, []byte("attacker")); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readMessage(conn); err != nil || typ != msgHello {
		t.Fatalf("handshake reply: typ=%d err=%v", typ, err)
	}
	// Frame payload shorter than a TTL byte + Ethernet header.
	writeMessage(conn, msgFrame, []byte{})
	writeMessage(conn, msgFrame, []byte{8, 1, 2, 3})
	// ACK with the wrong length.
	writeMessage(conn, msgAck, []byte{1, 2, 3})
	// Unknown message type.
	writeMessage(conn, 0xEE, []byte("mystery"))
	// The daemon still functions: a real peer can connect and exchange
	// traffic afterwards.
	good := NewDaemon("good")
	defer good.Close()
	if _, err := good.Connect(d.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	var sink collector
	d.AttachVM(ethernet.VMMAC(1), sink.port())
	good.AddRule(ethernet.VMMAC(1), "victim")
	good.InjectFrame(&ethernet.Frame{Dst: ethernet.VMMAC(1), Src: ethernet.VMMAC(2), Type: ethernet.TypeApp})
	waitFor(t, "delivery after malformed traffic", func() bool { return sink.count() == 1 })
}

func TestHandshakeEmptyNameRejected(t *testing.T) {
	d := NewDaemon("victim")
	if _, err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn := dialRaw(t, d)
	if err := writeMessage(conn, msgHello, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if len(d.Peers()) != 0 {
		t.Fatal("empty peer name accepted")
	}
}

func TestDefaultTTLSane(t *testing.T) {
	if DefaultTTL < 2 || DefaultTTL > 64 {
		t.Fatalf("DefaultTTL = %d", DefaultTTL)
	}
}

// countConn is a net.Conn that records every Write call (a copy of its
// bytes) and discards the data.
type countConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *countConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return len(b), nil
}

func (c *countConn) Close() error { return nil }

// calls returns the recorded writes.
func (c *countConn) calls() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// decodeWhole decodes one message from w and fails unless it spans all of
// w: a single Write must carry exactly one whole message.
func decodeWhole(t *testing.T, w []byte) (byte, []byte) {
	t.Helper()
	r := bytes.NewReader(w)
	typ, payload, err := readMessage(r)
	if err != nil {
		t.Fatalf("write of %d bytes is not one message: %v", len(w), err)
	}
	if r.Len() != 0 {
		t.Fatalf("write of %d bytes carries %d bytes past its message", len(w), r.Len())
	}
	return typ, payload
}

// TestTCPTransportOneWritePerMessage: every link message — frame, ACK and
// control — leaves the TCP transport as exactly one Write holding the
// whole framed message.
func TestTCPTransportOneWritePerMessage(t *testing.T) {
	d := NewDaemon("self")
	defer d.Close()
	conn := &countConn{}
	l := &Link{daemon: d, peer: "peer", tr: &tcpTransport{conn: conn}}

	frame := framePayload(t, ethernet.VMMAC(2), ethernet.VMMAC(1), DefaultTTL, 1400)
	if err := l.sendFramePayload(frame); err != nil {
		t.Fatal(err)
	}
	if err := l.sendAck(4242); err != nil {
		t.Fatal(err)
	}
	if err := l.sendControl([]byte("matrix push")); err != nil {
		t.Fatal(err)
	}
	small := framePayload(t, ethernet.VMMAC(2), ethernet.VMMAC(1), DefaultTTL, 12)
	if err := l.sendFramePayload(small); err != nil {
		t.Fatal(err)
	}

	writes := conn.calls()
	if len(writes) != 4 {
		t.Fatalf("%d writes for 4 messages", len(writes))
	}
	want := []struct {
		typ     byte
		payload []byte
	}{
		{msgFrame, frame},
		{msgAck, binary.BigEndian.AppendUint64(nil, 4242)},
		{msgControl, []byte("matrix push")},
		{msgFrame, small},
	}
	for i, w := range writes {
		typ, payload := decodeWhole(t, w)
		if typ != want[i].typ || !bytes.Equal(payload, want[i].payload) {
			t.Fatalf("write %d: typ=%d %d bytes, want typ=%d %d bytes",
				i, typ, len(payload), want[i].typ, len(want[i].payload))
		}
	}
	// The second frame carries the cumulative sequence after the first.
	if seq := binary.BigEndian.Uint64(small[1:9]); seq != uint64(len(frame)) {
		t.Fatalf("second frame seq = %d, want %d", seq, len(frame))
	}
}

// TestAckPerReceivedFrame: each frame received on a TCP link draws exactly
// one cumulative ACK, written at once as its own message — the
// self-clocking Wren's SIC analysis reads.
func TestAckPerReceivedFrame(t *testing.T) {
	d := NewDaemon("self")
	defer d.Close()
	var sink collector
	dst := ethernet.VMMAC(1)
	d.AttachVM(dst, sink.port())
	conn := &countConn{}
	in := &Link{daemon: d, peer: "peer", tr: &tcpTransport{conn: conn}}

	var cum int64
	for i := 0; i < 5; i++ {
		p := framePayload(t, dst, ethernet.VMMAC(2), DefaultTTL, 100+i)
		binary.BigEndian.PutUint64(p[1:9], uint64(cum))
		cum += int64(len(p))
		d.handleMessage(in, msgFrame, p)

		writes := conn.calls()
		if len(writes) != i+1 {
			t.Fatalf("after frame %d: %d writes, want %d", i, len(writes), i+1)
		}
		typ, payload := decodeWhole(t, writes[i])
		if typ != msgAck || len(payload) != 8 {
			t.Fatalf("write %d: typ=%d len=%d, want an ACK", i, typ, len(payload))
		}
		if got := int64(binary.BigEndian.Uint64(payload)); got != cum {
			t.Fatalf("ACK %d = %d, want cumulative %d", i, got, cum)
		}
	}
	if sink.count() != 5 {
		t.Fatalf("delivered %d of 5 frames", sink.count())
	}
}

// TestReadMessagesThroughBufio: back-to-back messages of mixed sizes,
// including one of maxMessage bytes, decode intact and in order through a
// bufio.Reader with one reused buffer; a truncated tail is an error with
// no partial payload.
func TestReadMessagesThroughBufio(t *testing.T) {
	sizes := []int{0, 1, 8, 100, 1409, 4096, 5000, maxMessage, 12, 3}
	var wire bytes.Buffer
	var want [][]byte
	for i, n := range sizes {
		p := bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := writeMessage(&wire, byte(i), p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	// Truncated tail: a header promising 100 bytes, followed by 10.
	wire.Write([]byte{msgFrame, 0, 0, 0, 100})
	wire.Write(make([]byte, 10))

	br := bufio.NewReader(&wire)
	var buf []byte
	for i := range sizes {
		typ, payload, err := readMessageInto(br, &buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if typ != byte(i) || !bytes.Equal(payload, want[i]) {
			t.Fatalf("message %d: typ=%d %d bytes, want typ=%d %d bytes", i, typ, len(payload), i, len(want[i]))
		}
	}
	typ, payload, err := readMessageInto(br, &buf)
	if err != io.ErrUnexpectedEOF || payload != nil || typ != 0 {
		t.Fatalf("truncated tail: typ=%d payload=%d bytes err=%v, want unexpected EOF and no payload", typ, len(payload), err)
	}
}

// TestReadMessagePayloadOutlivesNextRead: a payload never aliases the
// bufio buffer, so once the caller moves on to a fresh buffer (as the
// link read loop does when a payload is retained), later reads and
// bufio refills leave it unchanged.
func TestReadMessagePayloadOutlivesNextRead(t *testing.T) {
	var wire bytes.Buffer
	for i := 0; i < 8; i++ {
		writeMessage(&wire, msgFrame, bytes.Repeat([]byte{byte(0x10 + i)}, 1500))
	}
	br := bufio.NewReader(&wire) // 4 KiB: the stream forces several refills
	var first []byte
	_, kept, err := readMessageInto(br, &first)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), kept...)
	for i := 1; i < 8; i++ {
		var fresh []byte
		if _, _, err := readMessageInto(br, &fresh); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !bytes.Equal(kept, snapshot) {
			t.Fatalf("retained payload changed after read %d", i)
		}
	}
}

// TestCloseWithSilentPeer: an accepted connection that never says hello
// must not stall Close.
func TestCloseWithSilentPeer(t *testing.T) {
	d := NewDaemon("victim")
	if _, err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	dialRaw(t, d) // connects and sends nothing
	waitFor(t, "accepted conn in handshake", func() bool {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return len(d.accepting) == 1
	})
	done := make(chan struct{})
	go func() {
		d.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close blocked behind a silent handshake")
	}
}
