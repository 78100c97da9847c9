package phiwire

// The protocol-version-1 reference peer: the per-frame, allocating codec
// the package shipped before the per-connection one replaced it. It
// survives only here, as the old end of the interop tests
// (trace_compat_test.go) and as the specification the frameReader and
// the append encoders are compared against byte for byte.

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/phi"
	"repro/internal/trace"
)

// writeFrame writes a length-prefixed payload as a single Write.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	_, err := w.Write(append(b, payload...))
	return err
}

// mustFrame returns payload as the reference codec frames it.
func mustFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeFrame(&b, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// readFrame reads one length-prefixed payload: a header read, a make, a
// payload read. A stream that ends after a header is cut inside a frame.
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
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// writeTracedFrame writes payload as a traced frame: the type byte gains
// TraceFlag and the span context is spliced in after it.
func writeTracedFrame(w io.Writer, payload []byte, sc trace.SpanContext) error {
	if len(payload) == 0 {
		return ErrMalformed
	}
	b := []byte{payload[0] | TraceFlag}
	b = binary.BigEndian.AppendUint64(b, uint64(sc.Trace))
	b = binary.BigEndian.AppendUint64(b, uint64(sc.Span))
	return writeFrame(w, append(b, payload[1:]...))
}

func encodeHello(msgType byte, version uint16, caps uint32) []byte {
	b := binary.BigEndian.AppendUint16([]byte{msgType}, version)
	return binary.BigEndian.AppendUint32(b, caps)
}

func encodeLookup(path phi.PathKey) ([]byte, error) {
	if len(path) > MaxPathLen {
		return nil, errPathTooLong
	}
	return appendString([]byte{MsgLookup}, string(path)), nil
}

func encodeReportStart(path phi.PathKey) ([]byte, error) {
	if len(path) > MaxPathLen {
		return nil, errPathTooLong
	}
	return appendString([]byte{MsgReportStart}, string(path)), nil
}

// encodeReport builds an end or progress report (same payload layout).
func encodeReport(msgType byte, path phi.PathKey, r phi.Report) ([]byte, error) {
	if len(path) > MaxPathLen {
		return nil, errPathTooLong
	}
	b := appendString([]byte{msgType}, string(path))
	b = appendInt64(b, r.Bytes)
	b = appendInt64(b, int64(r.Duration))
	b = appendInt64(b, int64(r.AvgRTT))
	b = appendInt64(b, int64(r.MinRTT))
	b = appendFloat(b, r.LossRate)
	return b, nil
}

func encodeContext(c phi.Context) []byte {
	b := appendFloat([]byte{MsgContext}, c.U)
	b = appendInt64(b, int64(c.Q))
	b = appendInt64(b, int64(c.N))
	return b
}

func encodeError(msg string) []byte {
	if len(msg) > 512 {
		msg = msg[:512]
	}
	return appendString([]byte{MsgError}, msg)
}

// decodeReportEnd parses an end report payload (after the type byte)
// with no memo to hit.
func decodeReportEnd(b []byte) (phi.PathKey, phi.Report, error) {
	var last phi.PathKey
	op, err := decodeOp(MsgReportEnd, b, &last)
	return op.Path, op.Report, err
}

// handle is Server.handle as a one-off: a fresh response buffer and path
// memo per request, the response returned as a payload (frame header
// stripped, length checked against it).
func handle(s *Server, payload []byte) []byte {
	var last phi.PathKey
	frame, _ := s.handle(payload, nil, &last)
	var sink countWriter
	if err := flushFrame(&sink, frame); err != nil {
		panic(err)
	}
	return frame[4:]
}

// countWriter is an io.Writer that only counts.
type countWriter int

func (w *countWriter) Write(p []byte) (int, error) {
	*w += countWriter(len(p))
	return len(p), nil
}
