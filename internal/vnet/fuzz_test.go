package vnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"freemeasure/internal/ethernet"
)

// FuzzReadMessage feeds the wire decoder arbitrary byte streams: it must
// never panic, never allocate past maxMessage, and never claim to have
// read a payload longer than the input supplied. Decoding through a small
// bufio.Reader, as the link read loop does, must give the same result.
func FuzzReadMessage(f *testing.F) {
	var good bytes.Buffer
	writeMessage(&good, msgFrame, []byte("hello overlay"))
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add([]byte{msgHello, 0, 0, 0, 0})
	// Length field claiming more than the limit.
	huge := []byte{msgFrame, 0xff, 0xff, 0xff, 0xff}
	f.Add(huge)
	// Length field claiming more than the stream carries.
	f.Add([]byte{msgAck, 0, 0, 0, 8, 1, 2})
	// A message longer than the bufio buffer below, followed by another.
	var long bytes.Buffer
	writeMessage(&long, msgFrame, bytes.Repeat([]byte{0x5a}, 100))
	writeMessage(&long, msgAck, make([]byte, 8))
	f.Add(long.Bytes())

	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, err := readMessage(bytes.NewReader(b))
		btyp, bpayload, berr := readMessage(bufio.NewReaderSize(bytes.NewReader(b), 16))
		if (err == nil) != (berr == nil) || btyp != typ || !bytes.Equal(bpayload, payload) {
			t.Fatalf("bufio decode (typ=%d %d bytes, err=%v) != direct (typ=%d %d bytes, err=%v)",
				btyp, len(bpayload), berr, typ, len(payload), err)
		}
		if err != nil {
			return
		}
		if len(b) < 5 {
			t.Fatalf("decoded a message from %d bytes (< header)", len(b))
		}
		if typ != b[0] {
			t.Fatalf("type = %d, want first byte %d", typ, b[0])
		}
		want := binary.BigEndian.Uint32(b[1:5])
		if uint32(len(payload)) != want {
			t.Fatalf("payload %d bytes, header said %d", len(payload), want)
		}
		if want > maxMessage {
			t.Fatalf("accepted %d-byte message past the %d limit", want, maxMessage)
		}
		if int(want) > len(b)-5 {
			t.Fatalf("claimed %d payload bytes from a %d-byte stream", want, len(b))
		}
		if !bytes.Equal(payload, b[5:5+want]) {
			t.Fatal("payload does not match the wire bytes")
		}
	})
}

// FuzzReadMessageInto exercises the pooled-buffer variant with a reused
// buffer across two decodes through a small bufio.Reader, which is
// exactly how the link read loop calls it: the second decode must not be
// corrupted by the first, nor by the reader's refills.
func FuzzReadMessageInto(f *testing.F) {
	var one, two bytes.Buffer
	writeMessage(&one, msgFrame, bytes.Repeat([]byte{0xaa}, 100))
	writeMessage(&two, msgControl, []byte("x"))
	f.Add(one.Bytes(), two.Bytes())
	f.Add([]byte{}, []byte{})
	// Both messages in the first chunk: the second is served from what the
	// reader buffered while decoding the first.
	f.Add(append(append([]byte(nil), two.Bytes()...), two.Bytes()...), []byte{})

	f.Fuzz(func(t *testing.T, a, b []byte) {
		buf := make([]byte, 0, 16)
		r := bufio.NewReaderSize(io.MultiReader(bytes.NewReader(a), bytes.NewReader(b)), 16)
		var payloads [][]byte
		for i := 0; i < 2; i++ {
			_, payload, err := readMessageInto(r, &buf)
			if err != nil {
				break
			}
			// The payload aliases buf; snapshot it before the next decode
			// reuses the backing array.
			payloads = append(payloads, append([]byte(nil), payload...))
		}
		// Cross-check against the fresh-buffer decoder over the same stream.
		r2 := io.MultiReader(bytes.NewReader(a), bytes.NewReader(b))
		for i := 0; i < len(payloads); i++ {
			_, payload, err := readMessage(r2)
			if err != nil {
				t.Fatalf("decode %d: pooled succeeded, fresh failed: %v", i, err)
			}
			if !bytes.Equal(payload, payloads[i]) {
				t.Fatalf("decode %d: pooled %d bytes != fresh %d bytes", i, len(payloads[i]), len(payload))
			}
		}
	})
}

// FuzzFramePayload walks the msgFrame payload structure — [ttl][seq][eth
// frame] — through the same parsing the daemon's receive path performs,
// on arbitrary bytes: header slicing must stay in bounds.
func FuzzFramePayload(f *testing.F) {
	frame, _ := (&ethernet.Frame{
		Dst: ethernet.VMMAC(1), Src: ethernet.VMMAC(2),
		Type: ethernet.TypeApp, Payload: []byte("data"),
	}).Marshal()
	good := append([]byte{DefaultTTL, 0, 0, 0, 0, 0, 0, 0, 0}, frame...)
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, frameHeaderLen))
	f.Add(make([]byte, frameHeaderLen+ethernet.HeaderLen-1))

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < frameHeaderLen {
			return // receive path drops short payloads before parsing
		}
		ttl := b[0]
		seq := int64(binary.BigEndian.Uint64(b[1:9]))
		_ = ttl
		_ = seq
		raw := b[frameHeaderLen:]
		h, ok := ethernet.ParseHeader(raw)
		if ok != (len(raw) >= ethernet.HeaderLen) {
			t.Fatalf("ParseHeader ok=%v for %d raw bytes", ok, len(raw))
		}
		if !ok {
			return
		}
		fr, err := ethernet.Unmarshal(raw)
		if err != nil {
			t.Fatalf("header parsed but Unmarshal failed: %v", err)
		}
		if fr.Dst != h.Dst || fr.Src != h.Src || fr.Type != h.Type {
			t.Fatalf("fast-path header %+v != full decode %+v", h, fr)
		}
	})
}
