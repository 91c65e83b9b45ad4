package mpi

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// runTCPJob runs fn on every rank of a local TCP job.
func runTCPJob(t *testing.T, n int, fn func(c *Comm) error) {
	t.Helper()
	comms, err := StartLocalTCPJob(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range comms {
			c.Close()
		}
	}()
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(comms[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	runTCPJob(t, 3, func(c *Comm) error {
		// Ring: each rank sends to the next, receives from the previous.
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		if err := c.SendFloats(next, 9, []float32{float32(c.Rank())}); err != nil {
			return err
		}
		got, err := c.RecvFloats(prev, 9)
		if err != nil {
			return err
		}
		if got[0] != float32(prev) {
			return fmt.Errorf("got %v from %d", got, prev)
		}
		return nil
	})
}

func TestTCPBarrierAndBcast(t *testing.T) {
	runTCPJob(t, 4, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		buf := make([]float32, 3)
		if c.Rank() == 2 {
			buf = []float32{5, 6, 7}
		}
		if err := c.Bcast(buf, 2); err != nil {
			return err
		}
		if buf[0] != 5 || buf[2] != 7 {
			return fmt.Errorf("bcast got %v", buf)
		}
		return nil
	})
}

func TestTCPRingAllreduce(t *testing.T) {
	const n = 4
	runTCPJob(t, n, func(c *Comm) error {
		buf := make([]float32, 1000)
		for i := range buf {
			buf[i] = float32(c.Rank() + i)
		}
		if err := c.AllreduceRing(buf, OpSum); err != nil {
			return err
		}
		// sum over ranks of (r + i) = n*i + n(n-1)/2
		for i := range buf {
			want := float32(n*i + n*(n-1)/2)
			if buf[i] != want {
				return fmt.Errorf("elem %d: got %v want %v", i, buf[i], want)
			}
		}
		return nil
	})
}

func TestTCPLargePayload(t *testing.T) {
	runTCPJob(t, 2, func(c *Comm) error {
		const n = 1 << 18 // 1 MiB of float32
		if c.Rank() == 0 {
			data := make([]float32, n)
			data[n-1] = 42
			return c.SendFloats(1, 3, data)
		}
		got, err := c.RecvFloats(0, 3)
		if err != nil {
			return err
		}
		if len(got) != n || got[n-1] != 42 {
			return fmt.Errorf("large payload corrupted")
		}
		return nil
	})
}

func TestTCPSingleRank(t *testing.T) {
	comms, err := StartLocalTCPJob(1)
	if err != nil {
		t.Fatal(err)
	}
	c := comms[0]
	defer c.Close()
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	buf := []float32{1}
	if err := c.Allreduce(buf, OpSum); err != nil || buf[0] != 1 {
		t.Fatalf("allreduce: %v %v", buf, err)
	}
}

func TestTCPInvalidRank(t *testing.T) {
	if _, err := DialTCP(3, 2, "127.0.0.1:0", "127.0.0.1:0"); err == nil {
		t.Fatal("expected error for rank out of range")
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	comms, err := StartLocalTCPJob(2)
	if err != nil {
		t.Fatal(err)
	}
	comms[0].Close()
	if _, err := comms[1].Recv(0, 1); err == nil {
		t.Fatal("recv from closed peer must error")
	}
	comms[1].Close()
}

// wireBytes encodes f exactly as a tcpConn writes it.
func wireBytes(f Frame) []byte {
	var buf bytes.Buffer
	writeFrame(&buf, make([]byte, 8+traceCtxBytes), f)
	return buf.Bytes()
}

// The TCP wire format, byte for byte: an unstamped frame is the 8-byte
// header [len][tag] plus the payload; a stamped frame sets the length
// word's top bit and carries the 20-byte context between header and
// payload. All words are little-endian.
func TestFrameWireFormatGolden(t *testing.T) {
	cases := []struct {
		name string
		f    Frame
		hex  string
	}{
		{"unstamped", Frame{Tag: 0x01020304, Buf: []byte{0xaa, 0xbb, 0xcc}},
			"03000000" + "04030201" + "aabbcc"},
		{"stamped", Frame{Tag: 7, Buf: []byte{0x11, 0x22}, Ctx: TraceCtx{Step: 5, Coll: 9, Origin: 2, Span: 3<<32 | 9}},
			"02000080" + "07000000" + "05000000" + "09000000" + "02000000" + "0900000003000000" + "1122"},
		{"empty", Frame{Tag: tcpGoodbyeTag}, "00000000" + "fdffffff"},
	}
	for _, tc := range cases {
		wire := wireBytes(tc.f)
		if got := hex.EncodeToString(wire); got != tc.hex {
			t.Errorf("%s: wire bytes %s, want %s", tc.name, got, tc.hex)
		}
		f, err := readFrame(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f.Tag != tc.f.Tag || !bytes.Equal(f.Buf, tc.f.Buf) || f.Ctx != tc.f.Ctx {
			t.Errorf("%s: read back %+v, want %+v", tc.name, f, tc.f)
		}
	}
}

// A length word above maxFrameBytes is rejected before any payload is
// allocated, with or without the context flag.
func TestReadFrameRejectsOversize(t *testing.T) {
	for _, flag := range []uint32{0, tcpCtxFlag} {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], (maxFrameBytes+1)|flag)
		if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Errorf("flag %#x: want the frame-length limit error, got %v", flag, err)
		}
	}
}
