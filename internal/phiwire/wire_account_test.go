package phiwire

import (
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/phi"
	"repro/internal/sim"
)

// TestWireAccounting pins the wire-resource model end to end: with
// counters attached on both halves, N lifecycles account exactly 3N
// frames each way, the coalesced flushFrame (header + payload built in
// one buffer, one Write) yields a batching ratio of exactly 1.0 frames
// per write syscall on both sides — up from the 0.5 the original
// two-write frame encoder measured — and the frameReader takes each
// request/response frame off the wire in one Read, where the per-frame
// header-then-payload reader took two.
func TestWireAccounting(t *testing.T) {
	srv, backend, addr := startServer(t)
	backend.RegisterPath("p", 1_000_000)
	sw := obs.NewWireCounters()
	srv.SetWire(sw)
	if srv.Wire() != sw {
		t.Fatal("Wire() should return the attached counters")
	}

	cw := obs.NewWireCounters()
	c := Dial(addr, time.Second)
	c.SetWire(cw)
	defer c.Close()

	const lifecycles = 5
	for i := 0; i < lifecycles; i++ {
		if err := c.ReportStart("p"); err != nil {
			t.Fatal(err)
		}
		if err := c.ReportEnd("p", phi.Report{Bytes: 1 << 16, Duration: sim.Second, AvgRTT: 40 * sim.Millisecond, MinRTT: 30 * sim.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Lookup("p"); err != nil {
			t.Fatal(err)
		}
	}

	cs := cw.Snapshot()
	wantFrames := uint64(3 * lifecycles)
	if cs.FramesWritten != wantFrames || cs.FramesRead != wantFrames {
		t.Errorf("client frames w/r = %d/%d, want %d/%d", cs.FramesWritten, cs.FramesRead, wantFrames, wantFrames)
	}
	if cs.WriteSyscalls != wantFrames {
		t.Errorf("client write syscalls = %d, want %d (1 per frame, coalesced)", cs.WriteSyscalls, wantFrames)
	}
	if cs.FramesPerWriteSyscall != 1.0 {
		t.Errorf("client batching ratio = %v, want 1.0", cs.FramesPerWriteSyscall)
	}
	if cs.ReadSyscalls != cs.FramesRead {
		t.Errorf("client read syscalls = %d for %d frames, want 1 per frame", cs.ReadSyscalls, cs.FramesRead)
	}
	if cs.BytesWritten == 0 || cs.BytesRead == 0 {
		t.Errorf("client bytes w/r = %d/%d, want > 0", cs.BytesWritten, cs.BytesRead)
	}

	// The server handler runs async of the client's last read; the
	// response write completes before the client sees the frame, so by
	// the time Lookup returned everything is accounted — but give the
	// final FrameWritten bump (after writeFrame returns) a moment.
	deadline := time.Now().Add(2 * time.Second)
	var ss obs.WireSnapshot
	for time.Now().Before(deadline) {
		ss = sw.Snapshot()
		if ss.FramesWritten == wantFrames {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ss.FramesRead != wantFrames || ss.FramesWritten != wantFrames {
		t.Errorf("server frames r/w = %d/%d, want %d/%d", ss.FramesRead, ss.FramesWritten, wantFrames, wantFrames)
	}
	if ss.WriteSyscalls != wantFrames {
		t.Errorf("server write syscalls = %d, want %d (1 per frame, coalesced)", ss.WriteSyscalls, wantFrames)
	}
	if ss.FramesPerWriteSyscall != 1.0 {
		t.Errorf("server batching ratio = %v, want 1.0", ss.FramesPerWriteSyscall)
	}
	// The server's next Read is parked on the idle connection and is
	// counted only when it returns, so the counts are exact here.
	if ss.ReadSyscalls != ss.FramesRead {
		t.Errorf("server read syscalls = %d for %d frames, want 1 per frame", ss.ReadSyscalls, ss.FramesRead)
	}
	// Conservation: what the client put on the wire is what the server
	// took off it, byte for byte.
	if ss.BytesRead != cs.BytesWritten || cs.BytesRead != ss.BytesWritten {
		t.Errorf("byte conservation: server read %d vs client wrote %d; client read %d vs server wrote %d",
			ss.BytesRead, cs.BytesWritten, cs.BytesRead, ss.BytesWritten)
	}
}

// TestWireAccountingBurst: three requests arriving in one segment cost
// the server fewer than three reads, and it answers all three in order.
func TestWireAccountingBurst(t *testing.T) {
	srv, backend, addr := startServer(t)
	sw := obs.NewWireCounters()
	srv.SetWire(sw)
	paths := []phi.PathKey{"burst/a", "burst/b", "burst/c"}
	var burst []byte
	for i, p := range paths {
		for j := 0; j <= i; j++ { // path i answers N = i+1
			if err := backend.ReportStart(p); err != nil {
				t.Fatal(err)
			}
		}
		lookup, _ := encodeLookup(p)
		burst = append(burst, mustFrame(t, lookup)...)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for i := range paths {
		resp, err := readFrame(conn)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		ctx, err := decodeContext(resp[1:])
		if resp[0] != MsgContext || err != nil || ctx.N != i+1 {
			t.Fatalf("response %d: type %x ctx %+v err %v, want N = %d (in request order)", i, resp[0], ctx, err, i+1)
		}
	}
	ss := sw.Snapshot()
	if ss.FramesRead != 3 || ss.ReadSyscalls >= 3 {
		t.Errorf("server took %d frames in %d reads, want 3 frames in fewer than 3", ss.FramesRead, ss.ReadSyscalls)
	}
}

// TestWireAccountingOffByDefault: with no counters attached nothing is
// accounted and nothing breaks — the nil path is the production default.
func TestWireAccountingOffByDefault(t *testing.T) {
	srv, backend, addr := startServer(t)
	backend.RegisterPath("p", 1_000_000)
	c := Dial(addr, time.Second)
	defer c.Close()
	if _, err := c.Lookup("p"); err != nil {
		t.Fatal(err)
	}
	if srv.Wire() != nil {
		t.Fatal("wire counters attached by default")
	}
}
