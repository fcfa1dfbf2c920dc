package vnet

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Message types on a VNET link.
const (
	msgHello byte = 1 // payload: daemon name (UTF-8)
	// msgFrame payload: [ttl:1][seq:8][ethernet frame]. seq is the
	// cumulative payload-byte count before this message; carrying it
	// explicitly lets the cumulative ACK semantics survive datagram loss
	// on virtual-UDP links (the ACK is the highest byte seen, so later
	// frames cover earlier losses, exactly as Wren's analysis expects).
	msgFrame   byte = 2
	msgAck     byte = 3 // payload: [highest received payload byte:8]
	msgControl byte = 4 // payload: opaque control blob (VTTIF/Wren pushes)
)

// frameHeaderLen is the ttl+seq prefix inside a msgFrame payload.
const frameHeaderLen = 9

// maxMessage bounds a single link message.
const maxMessage = 1 << 16

// DefaultTTL is the hop limit stamped on frames entering the overlay;
// it bounds flooding loops when redundant links exist.
const DefaultTTL = 8

// msgHeaderLen is the [type:1][length:4] prefix of every link message.
const msgHeaderLen = 5

// appendMessage appends one framed link message, [typ][len:4][payload],
// to dst. It is the one framing encoder: the TCP and virtual-UDP
// transports both assemble a whole message and hand it to the socket in
// a single call, so a message is one write syscall (and, with Go's
// default TCP_NODELAY, one segment rather than a header segment plus a
// payload segment).
func appendMessage(dst []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > maxMessage {
		return dst, fmt.Errorf("vnet: message %d bytes exceeds limit", len(payload))
	}
	dst = append(dst, typ, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(dst[len(dst)-4:], uint32(len(payload)))
	return append(dst, payload...), nil
}

// writeMessage frames one message into a fresh buffer and writes it in one
// call (handshake path; link transports reuse a scratch buffer instead).
func writeMessage(w io.Writer, typ byte, payload []byte) error {
	buf, err := appendMessage(nil, typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readMessage reads one message into a fresh buffer (handshake path; the
// link read loops use readMessageInto with a pooled buffer instead).
func readMessage(r io.Reader) (typ byte, payload []byte, err error) {
	var buf []byte
	return readMessageInto(r, &buf)
}

// readMessageInto reads one message into bufp's backing array, growing it
// when the message is larger than its capacity. The header is read into
// the same array (a separate header array would escape through the
// io.Reader call: one allocation per message). The returned payload
// aliases *bufp and never r's own buffer, so it stays valid when r is a
// bufio.Reader that refills; callers reuse *bufp across messages unless
// the payload escaped downstream.
func readMessageInto(r io.Reader, bufp *[]byte) (typ byte, payload []byte, err error) {
	if cap(*bufp) < msgHeaderLen {
		*bufp = make([]byte, msgHeaderLen)
	}
	hdr := (*bufp)[:msgHeaderLen]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	typ = hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxMessage {
		return 0, nil, fmt.Errorf("vnet: message length %d exceeds limit", n)
	}
	if uint32(cap(*bufp)) < n {
		*bufp = make([]byte, n)
	}
	payload = (*bufp)[:n]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return typ, payload, nil
}
