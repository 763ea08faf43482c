package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"
)

// FuzzWireRead feeds arbitrary byte streams to the Reader and checks the two
// invariants a hostile peer must not be able to break:
//
//  1. decoding never panics or over-reads, whatever the input;
//  2. every accepted message survives an encode/decode round trip.
//
// Seeds cover one well-formed frame per message type plus the malformed
// shapes the unit tests pin (empty, truncated, oversized, unknown type), the
// handshake's refusals, and frames of the retired dialect.
func FuzzWireRead(f *testing.F) {
	for _, msg := range allTypesCorpus() {
		f.Add(AppendFrame(nil, msg))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                // empty frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}) // oversized
	f.Add([]byte{0, 0, 0, 1, 200})           // unknown type
	f.Add([]byte{0, 0, 0, 5, 1, 1, 2, 3})    // truncated body
	// A Data frame claiming more destinations than the body holds.
	f.Add([]byte{0, 0, 0, 8, 2, 0, 0, 0x7F, 0xFF, 0xFF, 0xFF, 0})
	// Session-mux tier: a MuxDeliver truncated mid subscriber-ID list (the
	// length prefix is fixed up so only the varint list is short)...
	mux := AppendFrame(nil, &MuxDeliver{
		PublishedAt: time.Unix(0, 0),
		SubIDs:      []uint32{1, 128, 1 << 20, 4},
		Payload:     []byte("p"),
	})
	chopped := append([]byte(nil), mux[:len(mux)-8]...)
	binary.BigEndian.PutUint32(chopped, uint32(len(chopped)-4))
	f.Add(chopped)
	// ...one whose ID count (uvarint 200) exceeds the remaining body...
	f.Add(append(append([]byte{0, 0, 0, 27, byte(TypeMuxDeliver)},
		make([]byte, 24)...), 0xC8, 0x01))
	// ...and an ID value that overflows uint32 (uvarint 2^33).
	f.Add(append(append([]byte{0, 0, 0, 31, byte(TypeMuxDeliver)},
		make([]byte, 24)...), 1, 0x80, 0x80, 0x80, 0x80, 0x20))
	// A LinkState whose Gamma is NaN: NaN sinks DeepEqual comparisons even
	// when both decoders agree bit-for-bit.
	f.Add(AppendFrame(nil, &LinkState{Origin: 1, Epoch: 2, Links: []LinkRecord{{To: 3, Gamma: math.NaN()}}}))
	// Relay-batch tier: a zero-length AckBatch (decoders must reject)...
	f.Add([]byte{0, 0, 0, 2, byte(TypeAckBatch), 0})
	// ...an AckBatch whose claimed count (uvarint 200) exceeds the body...
	f.Add([]byte{0, 0, 0, 3, byte(TypeAckBatch), 0xC8, 0x01})
	// ...and one whose single delta is an overlong (>10 byte) varint.
	f.Add(append([]byte{0, 0, 0, 13, byte(TypeAckBatch), 1},
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02))
	// A zero-length DataBatch, a DataBatch claiming 200 entries in an empty
	// body, and one whose first Dests delta reconstructs a node beyond int32.
	f.Add([]byte{0, 0, 0, 2, byte(TypeDataBatch), 0})
	f.Add([]byte{0, 0, 0, 3, byte(TypeDataBatch), 0xC8, 0x01})
	overflow := []byte{byte(TypeDataBatch), 1, 0, 0, 0, 0, 0, 0, 1}
	overflow = binary.AppendVarint(overflow, int64(math.MaxInt32)+1)
	overflow = append(overflow, 0, 0) // empty Path, empty Payload
	f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(overflow))), overflow...))
	// Control-plane tier: a LinkState withdrawing every link (zero records —
	// valid, and the smallest flood a peer can send)...
	f.Add(AppendFrame(nil, &LinkState{Origin: 1, Epoch: 2}))
	// ...one whose record count (uvarint 200) exceeds the remaining body...
	f.Add([]byte{0, 0, 0, 15, byte(TypeLinkState),
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xC8, 0x01})
	// ...one whose single record starts with an overlong (>10 byte) varint To...
	f.Add(append([]byte{0, 0, 0, 25, byte(TypeLinkState),
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1},
		0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02))
	// ...one whose To delta reconstructs a node ID beyond int32...
	lsOverflow := []byte{byte(TypeLinkState), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	lsOverflow = binary.AppendVarint(lsOverflow, int64(math.MaxInt32)+1)
	lsOverflow = binary.AppendVarint(lsOverflow, 0)
	lsOverflow = append(lsOverflow, 0, 0, 0, 0, 0, 0, 0, 0) // Gamma
	f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(lsOverflow))), lsOverflow...))
	// ...a Probe truncated mid token (decoders must reject)...
	f.Add([]byte{0, 0, 0, 5, byte(TypeProbe), 1, 2, 3, 4})
	// ...and the membership section: a topic count (uvarint 200) past the
	// body, an overlong (>10 byte) varint topic, and a negative deadline.
	members := func(tail ...byte) []byte {
		body := append([]byte{byte(TypeLinkState), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0}, tail...)
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	f.Add(members(0xC8, 0x01))
	f.Add(members(1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0))
	f.Add(members(binary.AppendVarint(binary.AppendVarint([]byte{1}, 7), -1)...))
	// Handshake: a Hello of another protocol version, one cut inside the
	// version field, and one in the pre-version layout (BrokerID then Name,
	// whose length's high half reads as version 0).
	hello := AppendFrame(nil, &Hello{BrokerID: 2, Name: "b"})
	binary.BigEndian.PutUint16(hello[9:], ProtocolVersion+1)
	f.Add(hello)
	f.Add([]byte{0, 0, 0, 6, byte(TypeHello), 0, 0, 0, 2, 0})
	f.Add([]byte{0, 0, 0, 10, byte(TypeHello), 0, 0, 0, 2, 0, 0, 0, 1, 'b'})
	// Retired dialect: a one-frame ACK (3), a PING (5), a SUBSCRIBE (7) and a
	// DELIVER (10), each in its old layout; all are unknown types now.
	f.Add([]byte{0, 0, 0, 9, 3, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{0, 0, 0, 9, 5, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 13, 7, 0, 0, 0, 4, 0, 0, 0, 0, 0x3B, 0x9A, 0xCA, 0})
	f.Add(append([]byte{0, 0, 0, 29, 10}, make([]byte, 28)...))

	// equal is DeepEqual with a fallback for frames carrying NaN floats
	// (a LinkRecord's Gamma is decoded straight from the wire, and arbitrary input
	// can put a NaN there; NaN != NaN sinks DeepEqual even when the decodes
	// produced bit-identical values). Byte-equal re-encodings are the
	// protocol-level invariant, and the codec moves float bits verbatim, so
	// NaN payloads survive the comparison.
	equal := func(a, b Message) bool {
		return reflect.DeepEqual(a, b) ||
			bytes.Equal(AppendFrame(nil, a), AppendFrame(nil, b))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		msg, err := next(raw)
		if err != nil {
			return
		}
		frame := AppendFrame(nil, msg)
		again, err := next(frame)
		if err != nil {
			t.Fatalf("re-decode of re-encoded %v failed: %v", msg.Type(), err)
		}
		if !equal(msg, again) {
			t.Fatalf("round trip changed %v:\n before %#v\n after  %#v", msg.Type(), msg, again)
		}
	})
}
