package phiwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"strings"
	"testing"

	"repro/internal/phi"
	"repro/internal/trace"
)

// FuzzHandle throws arbitrary request payloads at the server's dispatch
// loop. Whatever arrives, the server must answer with a well-formed
// response frame (high type bit set) and never panic — a malformed or
// hostile peer can degrade only itself.
func FuzzHandle(f *testing.F) {
	backend := phi.NewServer(wallClock, phi.ServerConfig{})
	backend.RegisterPath("p", 1_000_000)
	srv := NewServer(backend, nil)
	if err := srv.SetPolicy(phi.DefaultPolicy()); err != nil {
		f.Fatal(err)
	}

	lookup, _ := encodeLookup("p")
	report, _ := encodeReport(MsgReportEnd, "p", phi.Report{Bytes: 1 << 20})
	var traced bytes.Buffer
	if err := writeTracedFrame(&traced, lookup, trace.SpanContext{Trace: 7, Span: 9}); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{MsgLookup})
	f.Add(lookup)
	f.Add(report)
	f.Add(encodeHello(MsgHello, ProtocolVersion, CapTrace))
	f.Add(traced.Bytes()[4:]) // payload of a traced lookup frame
	f.Add([]byte{MsgLookup | TraceFlag, 0, 0, 0})
	f.Add([]byte{MsgContext, 1, 2, 3}) // response type as a request

	f.Fuzz(func(t *testing.T, payload []byte) {
		resp := handle(srv, payload)
		if len(resp) == 0 {
			t.Fatalf("empty response for payload %x", payload)
		}
		if resp[0]&0x80 == 0 {
			t.Fatalf("response type %#x has request bit for payload %x", resp[0], payload)
		}
	})
}

// FuzzDecodeReportEnd checks the report codec: decoding must never
// panic, and anything that decodes cleanly must survive an
// encode/decode round trip bit-for-bit.
func FuzzDecodeReportEnd(f *testing.F) {
	good, _ := encodeReport(MsgReportEnd, "path-a", phi.Report{
		Bytes: 123, Duration: 456, AvgRTT: 789, MinRTT: 12, LossRate: 0.25,
	})
	f.Add(good[1:])
	f.Add([]byte{})
	f.Add([]byte{0, 1, 'x'})

	f.Fuzz(func(t *testing.T, b []byte) {
		path, r, err := decodeReportEnd(b)
		if err != nil {
			return
		}
		if len(path) > MaxPathLen {
			// The bound is checked on the length prefix, before the copy.
			t.Fatalf("decode accepted a %d-byte path", len(path))
		}
		enc, err := encodeReport(MsgReportEnd, path, r)
		if err != nil {
			t.Fatalf("re-encode of decoded report failed: %v", err)
		}
		path2, r2, err := decodeReportEnd(enc[1:])
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// Compare loss rates by bit pattern so NaN inputs round-trip too.
		if path2 != path || r2.Bytes != r.Bytes || r2.Duration != r.Duration ||
			r2.AvgRTT != r.AvgRTT || r2.MinRTT != r.MinRTT ||
			math.Float64bits(r2.LossRate) != math.Float64bits(r.LossRate) {
			t.Fatalf("round trip changed report: %q %+v -> %q %+v", path, r, path2, r2)
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader. It
// must never panic or buffer beyond MaxFrame+4, and any frame it accepts
// must round-trip through the reference writeFrame.
func FuzzReadFrame(f *testing.F) {
	f.Add(mustFrame(f, []byte{MsgOK}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // length far beyond MaxFrame

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := frameReader{r: bytes.NewReader(data)}
		payload, err := fr.next()
		if len(fr.buf) > MaxFrame+4 {
			t.Fatalf("frame reader buffered %d bytes > MaxFrame+4", len(fr.buf))
		}
		if err != nil {
			return
		}
		back := frameReader{r: bytes.NewReader(mustFrame(t, payload))}
		if got, err := back.next(); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("frame round trip failed: %v", err)
		}
	})
}

// chunkReader delivers data in reads of the given sizes (cycled; a zero
// or exhausted size list means "whatever fits"), the way a socket hands
// a byte stream over in arbitrary pieces.
type chunkReader struct {
	data   []byte
	chunks []byte
	i      int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(r.chunks) > 0 {
		if c := int(r.chunks[r.i%len(r.chunks)]); c > 0 && c < n {
			n = c
		}
		r.i++
	}
	n = copy(p[:n], r.data)
	r.data = r.data[n:]
	return n, nil
}

// FuzzFrameStream is the proof behind the per-connection reader: however
// a byte stream is cut into reads, the frameReader yields the same frame
// sequence and the same terminal error (io.EOF on a frame boundary,
// io.ErrUnexpectedEOF inside a frame, ErrFrameTooLarge) as the reference
// readFrame loop over the unchunked bytes, and its buffer never exceeds
// MaxFrame+4.
func FuzzFrameStream(f *testing.F) {
	burst := seedBurst(f)
	f.Add(burst, []byte{})
	f.Add(burst, []byte{1})
	f.Add(burst, []byte{3, 7, 200})
	f.Add(burst[:len(burst)-5], []byte{5})                // cut inside a payload
	f.Add(append(burst[:9:9], 0, 0), []byte{2})           // cut inside a header
	f.Add(append(burst[:9:9], 0xFF, 0, 0, 0), []byte{13}) // oversized length after a good frame
	f.Fuzz(checkFrameStream)
}

// seedBurst is a few small frames back to back, an empty one among them.
func seedBurst(t testing.TB) []byte {
	lookup, _ := encodeLookup("p")
	report, _ := encodeReport(MsgReportEnd, "p", phi.Report{Bytes: 1 << 20})
	var burst []byte
	for _, p := range [][]byte{lookup, report, {MsgOK}, nil, lookup} {
		burst = append(burst, mustFrame(t, p)...)
	}
	return burst
}

func checkFrameStream(t *testing.T, stream, chunks []byte) {
	ref := bytes.NewReader(stream)
	fr := frameReader{r: &chunkReader{data: stream, chunks: chunks}}
	for i := 0; ; i++ {
		want, wantErr := readFrame(ref)
		got, err := fr.next()
		if len(fr.buf) > MaxFrame+4 {
			t.Fatalf("frame %d: reader buffered %d bytes > MaxFrame+4", i, len(fr.buf))
		}
		if err != wantErr {
			t.Fatalf("frame %d: error %v, reference %v", i, err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload %x, reference %x", i, got, want)
		}
	}
}

// TestFrameStreamLargeFrames runs FuzzFrameStream's check where the
// fuzzer's small seeds do not reach: frames that outgrow the starting
// buffer, up to exactly MaxFrame, between bursts of small ones (so the
// tail is copied down and the buffer replaced with frames behind it),
// and a length one past MaxFrame, refused before any of it is buffered.
func TestFrameStreamLargeFrames(t *testing.T) {
	burst := seedBurst(t)
	var stream []byte
	for _, n := range []int{readBufSize - 4, readBufSize + 100, 3 * readBufSize, MaxFrame} {
		stream = append(stream, burst...)
		stream = append(stream, mustFrame(t, bytes.Repeat([]byte{byte(n)}, n))...)
	}
	stream = append(stream, burst...)
	for _, chunks := range [][]byte{nil, {1}, {3, 7, 200}, {255, 0}} {
		checkFrameStream(t, stream, chunks)
		checkFrameStream(t, stream[:len(stream)-len(burst)-1], chunks) // ends inside the MaxFrame frame
	}

	over := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	fr := frameReader{r: bytes.NewReader(append(over, make([]byte, MaxFrame+1)...))}
	if _, err := fr.next(); err != ErrFrameTooLarge {
		t.Fatalf("length MaxFrame+1: error %v, want ErrFrameTooLarge", err)
	}
	if len(fr.buf) != readBufSize {
		t.Fatalf("oversized frame grew the buffer to %d bytes", len(fr.buf))
	}
}

// FuzzReadString checks the length-prefixed string codec against
// arbitrary input: no panics, and decoded strings re-encode to the
// bytes they came from.
func FuzzReadString(f *testing.F) {
	f.Add(appendString(nil, "hello"))
	f.Add([]byte{})
	f.Add([]byte{0, 5, 'a'}) // length prefix longer than the body

	f.Fuzz(func(t *testing.T, b []byte) {
		s, rest, err := readString(b)
		if err != nil {
			return
		}
		if len(s)+len(rest)+2 != len(b) {
			t.Fatalf("readString lost bytes: %d string + %d rest + 2 != %d", len(s), len(rest), len(b))
		}
		if enc := appendString(nil, s); !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("re-encode mismatch for %q", s)
		}
	})
}

// TestHandleRejectsOversizedPath is the regression test for the issue
// the fuzzers surfaced: the client-side encoders cap path keys at
// MaxPathLen, but the string codec admits anything up to 64 KiB, so a
// hand-rolled frame could push an arbitrarily long key into the backend
// (and into every per-path map behind it). The server must refuse such
// requests at dispatch.
func TestHandleRejectsOversizedPath(t *testing.T) {
	backend := phi.NewServer(wallClock, phi.ServerConfig{})
	srv := NewServer(backend, nil)
	long := strings.Repeat("x", MaxPathLen+1)

	for _, msgType := range []byte{MsgLookup, MsgReportStart} {
		resp := handle(srv, appendString([]byte{msgType}, long))
		if resp[0] != MsgError {
			t.Fatalf("type %#x: oversized path accepted: %x", msgType, resp)
		}
		if msg, _, _ := readString(resp[1:]); !strings.Contains(msg, "too long") {
			t.Fatalf("type %#x: unexpected error %q", msgType, msg)
		}
	}
	for _, msgType := range []byte{MsgReportEnd, MsgProgress} {
		b := appendString([]byte{msgType}, long)
		b = appendInt64(b, 1)
		b = appendInt64(b, 1)
		b = appendInt64(b, 1)
		b = appendInt64(b, 1)
		b = appendFloat(b, 0)
		resp := handle(srv, b)
		if resp[0] != MsgError {
			t.Fatalf("type %#x: oversized path accepted: %x", msgType, resp)
		}
	}
	if _, rejected := srv.Stats(); rejected != 4 {
		t.Fatalf("rejected = %d, want 4", rejected)
	}
	// A key at exactly MaxPathLen is legal.
	edge := strings.Repeat("y", MaxPathLen)
	backend.RegisterPath(phi.PathKey(edge), 1_000_000)
	resp := handle(srv, appendString([]byte{MsgLookup}, edge))
	if resp[0] != MsgContext {
		t.Fatalf("MaxPathLen key rejected: %x", resp)
	}
}

// TestWireOversizedPathRefusedBeforeCopy: the 16-bit length prefix admits
// a path of up to 64 KiB, and the bound used to be checked only after
// decode had copied it into a string. Over a real connection a 2 KiB
// path gets the "path key too long" error frame, counts as rejected, and
// the connection keeps serving.
func TestWireOversizedPathRefusedBeforeCopy(t *testing.T) {
	srv, backend, addr := startServer(t)
	backend.RegisterPath("p", 1_000_000)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	long := appendString([]byte{MsgLookup}, strings.Repeat("x", 2048))
	if got := testing.AllocsPerRun(100, func() { decodeOp(MsgLookup, long[1:], new(phi.PathKey)) }); got != 0 {
		t.Errorf("refusing an oversized path allocated %.0f times: it was copied first", got)
	}
	if err := writeFrame(conn, long); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if msg, _, _ := readString(resp[1:]); resp[0] != MsgError || msg != "path key too long" {
		t.Fatalf("2 KiB path answered %x %q, want the path-key-too-long error", resp[0], msg)
	}
	if _, rejected := srv.Stats(); rejected != 1 {
		t.Errorf("rejected = %d, want 1", rejected)
	}
	lookup, _ := encodeLookup("p")
	if err := writeFrame(conn, lookup); err != nil {
		t.Fatal(err)
	}
	if resp, err = readFrame(conn); err != nil || resp[0] != MsgContext {
		t.Fatalf("connection stopped serving after the refusal: resp=%x err=%v", resp, err)
	}
}
