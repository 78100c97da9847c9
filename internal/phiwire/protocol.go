// Package phiwire exposes the Phi context server over real TCP, so the
// shared-state protocol of Section 2.2.2 runs between actual hosts rather
// than only inside the simulator.
//
// The protocol is deliberately minimal — one lookup at connection start,
// one report at connection end — because that is the paper's entire point
// about overhead. Frames are length-prefixed binary:
//
//	uint32  frame length (payload only, big endian)
//	uint8   message type
//	...     message fields, big endian, strings as uint16 length + bytes
//
// Requests carry a path key; responses carry either a context, an OK, or
// an error string. One request yields exactly one response, in order, so
// a single connection may be shared by a mutex-holding client.
//
// The codec is per connection, not per frame, and allocates nothing in
// steady state. Each end owns one frameReader, whose single reused buffer
// takes whatever one Read delivers and hands out every complete frame in
// it as a sub-slice, and one write buffer into which a frame is appended
// in place (beginFrame, the body, flushFrame patching the length) and
// written with one Write. A payload therefore aliases the read buffer
// and is valid only until the next frame is asked for: whoever needs
// bytes beyond that copies them — the server's decode copies the path
// (once, and not at all when it repeats the connection's previous one),
// the client decodes its reply before releasing its lock.
package phiwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/phi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Message types.
const (
	MsgLookup      = 0x01
	MsgReportStart = 0x02
	MsgReportEnd   = 0x03
	MsgGetPolicy   = 0x04
	MsgProgress    = 0x05
	MsgHello       = 0x06
	MsgContext     = 0x81
	MsgOK          = 0x82
	MsgPolicy      = 0x83
	MsgHelloAck    = 0x84
	MsgError       = 0xFF
)

// TraceFlag, set on a request type byte, marks an optional 16-byte trace
// header (trace ID + parent span ID) between the type byte and the
// normal body. The flag occupies an otherwise unused bit of the request
// type space (responses use 0x80), so untraced frames are byte-for-byte
// identical to protocol version 1 — an old client against a new server
// never sees the extension. A client only sets the flag after a
// Hello/HelloAck capability exchange proved the server understands it,
// so a new client against an old server falls back to plain frames.
const TraceFlag = 0x40

// ProtocolVersion is the version advertised in Hello frames. Version 1
// predates Hello (old peers answer it with an error frame, which new
// clients treat as "no capabilities").
const ProtocolVersion = 2

// Capability bits exchanged in Hello/HelloAck.
const (
	// CapTrace: the peer understands TraceFlag trace headers.
	CapTrace = 1 << 0
)

// MaxFrame bounds frame payloads; anything larger is a protocol violation.
const MaxFrame = 64 * 1024

// MaxPathLen bounds path keys.
const MaxPathLen = 1024

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("phiwire: frame exceeds MaxFrame")
	ErrMalformed     = errors.New("phiwire: malformed message")
)

// readBufSize is a frameReader's starting buffer: room for a burst of
// protocol frames (tens of bytes each) or one frame with a MaxPathLen
// path.
const readBufSize = 4096

// frameReader decodes the length-prefixed frames of one connection
// through one reused buffer. buf[off:end] holds bytes read and not yet
// handed out; the buffer grows only to fit a frame, so never beyond
// MaxFrame+4.
type frameReader struct {
	r        io.Reader
	buf      []byte
	off, end int
}

// reset points the reader at a new connection and forgets anything
// buffered from the previous one.
func (fr *frameReader) reset(r io.Reader) {
	fr.r, fr.off, fr.end = r, 0, 0
}

// next returns the next frame's payload: a sub-slice of the buffer,
// valid until the next call. It issues one Read for whatever has arrived
// only when the buffer holds no complete frame, so a burst of frames
// costs one Read. An oversized length is rejected before any of its
// payload is buffered. At end of stream the error is io.EOF on a frame
// boundary and io.ErrUnexpectedEOF inside a frame.
func (fr *frameReader) next() ([]byte, error) {
	for {
		need := 4
		if fr.end-fr.off >= 4 {
			n := binary.BigEndian.Uint32(fr.buf[fr.off:])
			if n > MaxFrame {
				return nil, ErrFrameTooLarge
			}
			need += int(n)
			if fr.end-fr.off >= need {
				payload := fr.buf[fr.off+4 : fr.off+need]
				fr.off += need
				return payload, nil
			}
		}
		fr.fit(need)
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		if n == 0 && err != nil {
			if err == io.EOF && fr.end > fr.off {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

// fit makes room for a frame of need bytes starting at off, with space
// to read into: the unread tail is copied down in place only when the
// frame would not fit behind it, and the buffer is replaced only when
// the frame is larger than the whole of it.
func (fr *frameReader) fit(need int) {
	if fr.off == fr.end {
		fr.off, fr.end = 0, 0
	}
	if fr.off+need <= len(fr.buf) {
		return
	}
	tail := fr.buf[fr.off:fr.end]
	if need > len(fr.buf) {
		fr.buf = make([]byte, max(need, readBufSize))
	}
	fr.end = copy(fr.buf, tail)
	fr.off = 0
}

// beginFrame starts a frame in b, reusing its storage: the length
// placeholder, the type byte and, when sc is valid, TraceFlag on the
// type byte and the span context after it. The caller appends the body
// and hands the result to flushFrame.
func beginFrame(b []byte, typ byte, sc trace.SpanContext) []byte {
	if !sc.Valid() {
		return append(b[:0], 0, 0, 0, 0, typ)
	}
	b = append(b[:0], 0, 0, 0, 0, typ|TraceFlag)
	b = binary.BigEndian.AppendUint64(b, uint64(sc.Trace))
	return binary.BigEndian.AppendUint64(b, uint64(sc.Span))
}

// flushFrame patches the length header of the frame built in b and hands
// the whole frame to the writer in ONE Write — one syscall on a raw
// connection, where a header write followed by a payload write cost two.
func flushFrame(w io.Writer, b []byte) error {
	n := len(b) - 4
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	_, err := w.Write(b)
	return err
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// readBytes parses a length-prefixed string without copying it: the
// result aliases b.
func readBytes(b []byte) (s, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, ErrMalformed
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, ErrMalformed
	}
	return b[:n], b[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	s, rest, err := readBytes(b)
	return string(s), rest, err
}

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func readFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrMalformed
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), b[8:], nil
}

func appendInt64(b []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(v))
}

func readInt64(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrMalformed
	}
	return int64(binary.BigEndian.Uint64(b)), b[8:], nil
}

// appendHello builds a Hello (or HelloAck) frame in b: version then
// capability bits.
func appendHello(b []byte, msgType byte, version uint16, caps uint32) []byte {
	b = binary.BigEndian.AppendUint16(beginFrame(b, msgType, trace.SpanContext{}), version)
	return binary.BigEndian.AppendUint32(b, caps)
}

// decodeHello parses a Hello/HelloAck payload (after the type byte).
func decodeHello(b []byte) (version uint16, caps uint32, err error) {
	if len(b) < 6 {
		return 0, 0, ErrMalformed
	}
	return binary.BigEndian.Uint16(b), binary.BigEndian.Uint32(b[2:]), nil
}

// traceHeaderLen is the wire size of a span context.
const traceHeaderLen = 16

// readSpanContext parses the 16-byte trace header that follows a
// TraceFlag type byte.
func readSpanContext(b []byte) (trace.SpanContext, []byte, error) {
	if len(b) < traceHeaderLen {
		return trace.SpanContext{}, nil, ErrMalformed
	}
	sc := trace.SpanContext{
		Trace: trace.TraceID(binary.BigEndian.Uint64(b)),
		Span:  trace.SpanID(binary.BigEndian.Uint64(b[8:])),
	}
	return sc, b[traceHeaderLen:], nil
}

// requestTypes is the request type byte of each backend operation, by
// phi.OpKind.
var requestTypes = [...]byte{
	phi.OpLookup:         MsgLookup,
	phi.OpReportStart:    MsgReportStart,
	phi.OpReportEnd:      MsgReportEnd,
	phi.OpReportProgress: MsgProgress,
}

// errPathTooLong refuses a path key beyond MaxPathLen, on encode and on
// decode alike.
var errPathTooLong = fmt.Errorf("phiwire: path key too long (max %d bytes)", MaxPathLen)

// appendOp builds the request frame of a backend operation in b, traced
// when sc is valid: the path (which the caller has held to MaxPathLen),
// then for an end or progress report (same layout) the report's fields.
func appendOp(b []byte, sc trace.SpanContext, op phi.Op) []byte {
	b = appendString(beginFrame(b, requestTypes[op.Kind], sc), string(op.Path))
	if op.Kind == phi.OpLookup || op.Kind == phi.OpReportStart {
		return b
	}
	r := op.Report
	b = appendInt64(b, r.Bytes)
	b = appendInt64(b, int64(r.Duration))
	b = appendInt64(b, int64(r.AvgRTT))
	b = appendInt64(b, int64(r.MinRTT))
	return appendFloat(b, r.LossRate)
}

// decodeOp parses the body of one of the four backend request types
// (after the type byte and any trace header). body aliases the read
// buffer, so the path is the one thing copied out of it — after its
// length has passed MaxPathLen, and not at all when the bytes equal
// *last, the previous path decoded on this connection (a lifecycle's
// lookup, start, progress and end all name one path). On error op.Kind
// is still set, so the caller can say which request was malformed.
func decodeOp(typ byte, body []byte, last *phi.PathKey) (op phi.Op, err error) {
	switch typ {
	case MsgLookup:
		op.Kind = phi.OpLookup
	case MsgReportStart:
		op.Kind = phi.OpReportStart
	case MsgReportEnd:
		op.Kind = phi.OpReportEnd
	default:
		op.Kind = phi.OpReportProgress
	}
	path, b, err := readBytes(body)
	if err != nil {
		return op, err
	}
	if len(path) > MaxPathLen {
		return op, errPathTooLong
	}
	if string(path) != string(*last) { // compares without allocating
		*last = phi.PathKey(path)
	}
	op.Path = *last
	if op.Kind == phi.OpLookup || op.Kind == phi.OpReportStart {
		return op, nil
	}
	r := &op.Report
	if r.Bytes, b, err = readInt64(b); err != nil {
		return op, err
	}
	var v int64
	if v, b, err = readInt64(b); err != nil {
		return op, err
	}
	r.Duration = sim.Time(v)
	if v, b, err = readInt64(b); err != nil {
		return op, err
	}
	r.AvgRTT = sim.Time(v)
	if v, b, err = readInt64(b); err != nil {
		return op, err
	}
	r.MinRTT = sim.Time(v)
	r.LossRate, _, err = readFloat(b)
	return op, err
}

// appendContext builds a context response frame in b.
func appendContext(b []byte, c phi.Context) []byte {
	b = appendFloat(beginFrame(b, MsgContext, trace.SpanContext{}), c.U)
	b = appendInt64(b, int64(c.Q))
	return appendInt64(b, int64(c.N))
}

// appendError builds an error response frame in b.
func appendError(b []byte, msg string) []byte {
	if len(msg) > 512 {
		msg = msg[:512]
	}
	return appendString(beginFrame(b, MsgError, trace.SpanContext{}), msg)
}

// decodeContext parses a context response payload (after the type byte).
func decodeContext(b []byte) (phi.Context, error) {
	u, b, err := readFloat(b)
	if err != nil {
		return phi.Context{}, err
	}
	q, b, err := readInt64(b)
	if err != nil {
		return phi.Context{}, err
	}
	n, _, err := readInt64(b)
	if err != nil {
		return phi.Context{}, err
	}
	return phi.Context{U: u, Q: sim.Time(q), N: int(n)}, nil
}
