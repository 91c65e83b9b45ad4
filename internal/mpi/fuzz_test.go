package mpi

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzUnpackParts hardens the variable-length framing used by
// AllgatherBytes: arbitrary input must never panic, and every valid packing
// must round-trip.
func FuzzUnpackParts(f *testing.F) {
	f.Add(packParts(nil))
	f.Add(packParts([][]byte{{1, 2, 3}}))
	f.Add(packParts([][]byte{nil, []byte("hello"), {0}}))
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := unpackParts(data)
		if err != nil {
			return
		}
		re := packParts(parts)
		parts2, err := unpackParts(re)
		if err != nil {
			t.Fatalf("re-pack failed: %v", err)
		}
		if len(parts2) != len(parts) {
			t.Fatalf("count mismatch %d vs %d", len(parts2), len(parts))
		}
		for i := range parts {
			if string(parts[i]) != string(parts2[i]) {
				t.Fatalf("part %d mismatch", i)
			}
		}
	})
}

// FuzzBytesToFloats ensures the float codec rejects bad lengths without
// panicking and round-trips valid payloads.
func FuzzBytesToFloats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(floatsToBytes([]float32{1.5, -2.25, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := bytesToFloats(data)
		if err != nil {
			if len(data)%4 == 0 {
				t.Fatalf("aligned payload rejected: %v", err)
			}
			return
		}
		re := floatsToBytes(fs)
		if string(re) != string(data) {
			t.Fatal("float round trip mismatch")
		}
	})
}

// FuzzReadFrame hardens the TCP frame decoder: arbitrary input must never
// panic, and any frame that parses must round-trip through writeFrame —
// byte for byte, except that a stamped frame with a zero span is written
// back unstamped (the writer stamps only real contexts).
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []Frame{
		{Tag: 3, Buf: []byte("payload")},
		{Tag: 7, Buf: []byte{1, 2}, Ctx: TraceCtx{Step: 1, Coll: 2, Origin: 3, Span: 4<<32 | 2}},
		{Tag: tcpGoodbyeTag},
	} {
		f.Add(wireBytes(fr))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound memory: readFrame allocates the declared length up front.
		if len(data) >= 4 && binary.LittleEndian.Uint32(data)&^tcpCtxFlag > 1<<20 {
			return
		}
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		out := wireBytes(fr)
		stamped := binary.LittleEndian.Uint32(data)&tcpCtxFlag != 0
		n := 8 + len(fr.Buf)
		if stamped {
			n += traceCtxBytes
		}
		if (!stamped || fr.Ctx.Span != 0) && !bytes.Equal(out, data[:n]) {
			t.Fatalf("round trip changed the wire bytes:\n in  %x\n out %x", data[:n], out)
		}
		back, err := readFrame(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("rewritten frame does not parse: %v", err)
		}
		if fr.Ctx.Span == 0 {
			fr.Ctx = TraceCtx{}
		}
		if back.Tag != fr.Tag || !bytes.Equal(back.Buf, fr.Buf) || back.Ctx != fr.Ctx {
			t.Fatalf("round trip changed the frame: %+v vs %+v", back, fr)
		}
	})
}
