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

// writeFrame writes a length-prefixed payload as a single Write. This
// convenience form allocates its own buffer; hot paths hold a reusable
// scratch buffer across frames and call writeFrameBuf directly.
func writeFrame(w io.Writer, payload []byte) error {
	var scratch []byte
	return writeFrameBuf(w, payload, &scratch)
}

// writeFrameBuf serializes the 4-byte length header and the payload into
// *scratch (grown on demand, reused across calls) and hands the whole
// frame to the writer in ONE Write — one syscall on a raw connection,
// where a header write followed by a payload write cost two. Per-frame
// syscalls dominate the wire layer's cost at the saturation knee, so the
// copy (tens of bytes for protocol frames) buys half the syscalls.
func writeFrameBuf(w io.Writer, payload []byte, scratch *[]byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	b := append((*scratch)[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	*scratch = b
	_, err := w.Write(b)
	return err
}

// readFrame reads one length-prefixed payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, ErrMalformed
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, ErrMalformed
	}
	return string(b[:n]), b[n:], nil
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

// encodeHello builds a Hello (or HelloAck) frame: version then
// capability bits.
func encodeHello(msgType byte, version uint16, caps uint32) []byte {
	b := binary.BigEndian.AppendUint16([]byte{msgType}, version)
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

// writeTracedFrame writes payload as a traced frame: the type byte gains
// TraceFlag and the span context is spliced in after it. Convenience
// form of writeTracedFrameBuf with a throwaway buffer.
func writeTracedFrame(w io.Writer, payload []byte, sc trace.SpanContext) error {
	var scratch []byte
	return writeTracedFrameBuf(w, payload, sc, &scratch)
}

// writeTracedFrameBuf is writeFrameBuf's traced sibling: frame header,
// flagged type byte, trace header, and body are serialized into *scratch
// and written with a single Write.
func writeTracedFrameBuf(w io.Writer, payload []byte, sc trace.SpanContext, scratch *[]byte) error {
	if len(payload) == 0 {
		return ErrMalformed
	}
	n := len(payload) + traceHeaderLen
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	b := append((*scratch)[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(b, uint32(n))
	b = append(b, payload[0]|TraceFlag)
	b = binary.BigEndian.AppendUint64(b, uint64(sc.Trace))
	b = binary.BigEndian.AppendUint64(b, uint64(sc.Span))
	b = append(b, payload[1:]...)
	*scratch = b
	_, err := w.Write(b)
	return err
}

// encodeLookup builds a lookup request.
func encodeLookup(path phi.PathKey) ([]byte, error) {
	if len(path) > MaxPathLen {
		return nil, fmt.Errorf("phiwire: path key too long (%d bytes)", len(path))
	}
	return appendString([]byte{MsgLookup}, string(path)), nil
}

// encodeReportStart builds a start report.
func encodeReportStart(path phi.PathKey) ([]byte, error) {
	if len(path) > MaxPathLen {
		return nil, fmt.Errorf("phiwire: path key too long (%d bytes)", len(path))
	}
	return appendString([]byte{MsgReportStart}, string(path)), nil
}

// encodeReport builds an end or progress report (same payload layout).
func encodeReport(msgType byte, path phi.PathKey, r phi.Report) ([]byte, error) {
	if len(path) > MaxPathLen {
		return nil, fmt.Errorf("phiwire: path key too long (%d bytes)", len(path))
	}
	b := appendString([]byte{msgType}, string(path))
	b = appendInt64(b, r.Bytes)
	b = appendInt64(b, int64(r.Duration))
	b = appendInt64(b, int64(r.AvgRTT))
	b = appendInt64(b, int64(r.MinRTT))
	b = appendFloat(b, r.LossRate)
	return b, nil
}

// encodeOp builds the request frame payload of a backend operation.
func encodeOp(op phi.Op) ([]byte, error) {
	switch op.Kind {
	case phi.OpLookup:
		return encodeLookup(op.Path)
	case phi.OpReportStart:
		return encodeReportStart(op.Path)
	case phi.OpReportEnd:
		return encodeReport(MsgReportEnd, op.Path, op.Report)
	default:
		return encodeReport(MsgProgress, op.Path, op.Report)
	}
}

// decodeOp parses the body of one of the four backend request types
// (after the type byte and any trace header). On error op.Kind is still
// set, so the caller can say which request was malformed.
func decodeOp(typ byte, body []byte) (op phi.Op, err error) {
	switch typ {
	case MsgLookup, MsgReportStart:
		op.Kind = phi.OpLookup
		if typ == MsgReportStart {
			op.Kind = phi.OpReportStart
		}
		var path string
		path, _, err = readString(body)
		op.Path = phi.PathKey(path)
	default:
		op.Kind = phi.OpReportEnd
		if typ == MsgProgress {
			op.Kind = phi.OpReportProgress
		}
		op.Path, op.Report, err = decodeReportEnd(body)
	}
	return op, err
}

// encodeContext builds a context response.
func encodeContext(c phi.Context) []byte {
	b := appendFloat([]byte{MsgContext}, c.U)
	b = appendInt64(b, int64(c.Q))
	b = appendInt64(b, int64(c.N))
	return b
}

// encodeError builds an error response.
func encodeError(msg string) []byte {
	if len(msg) > 512 {
		msg = msg[:512]
	}
	return appendString([]byte{MsgError}, msg)
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

// decodeReportEnd parses an end report payload (after the type byte).
func decodeReportEnd(b []byte) (phi.PathKey, phi.Report, error) {
	path, b, err := readString(b)
	if err != nil {
		return "", phi.Report{}, err
	}
	var r phi.Report
	if r.Bytes, b, err = readInt64(b); err != nil {
		return "", phi.Report{}, err
	}
	var v int64
	if v, b, err = readInt64(b); err != nil {
		return "", phi.Report{}, err
	}
	r.Duration = sim.Time(v)
	if v, b, err = readInt64(b); err != nil {
		return "", phi.Report{}, err
	}
	r.AvgRTT = sim.Time(v)
	if v, b, err = readInt64(b); err != nil {
		return "", phi.Report{}, err
	}
	r.MinRTT = sim.Time(v)
	if r.LossRate, _, err = readFloat(b); err != nil {
		return "", phi.Report{}, err
	}
	return phi.PathKey(path), r, nil
}
