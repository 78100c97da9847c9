package repro_test

// The benchmark harness: one benchmark per table and figure of the paper
// (regenerating it end to end with the coarse experiment options), plus
// microbenchmarks of the substrates on their hot paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks take seconds per iteration by design — they
// run whole simulation campaigns.

import (
	"net"
	"testing"
	"time"

	"repro/internal/diagnosis"
	"repro/internal/experiments"
	"repro/internal/ipfix"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/remy"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/workload"
)

// ---- One benchmark per table / figure ----

func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().Defaults.InitialSsthresh != 65536 {
			b.Fatal("bad defaults")
		}
	}
}

func BenchmarkTable2Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2(experiments.Options{Full: true}).Points != 576 {
			b.Fatal("bad grid")
		}
	}
}

func BenchmarkFig2aLowUtil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig2a(experiments.Options{Seed: int64(i)})
		gain, _, _, _ := f.Improvement()
		b.ReportMetric(gain, "thr-gain")
	}
}

func BenchmarkFig2bHighUtil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig2b(experiments.Options{Seed: int64(i)})
		_, _, lossDef, _ := f.Improvement()
		b.ReportMetric(100*lossDef, "default-loss-%")
	}
}

func BenchmarkFig2cLongRunning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Fig2c(experiments.Options{Seed: int64(i)})
		b.ReportMetric(f.Utilization, "utilization")
	}
}

func BenchmarkFig3Stability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(experiments.Options{Seed: int64(i)})
		b.ReportMetric(r.CommonGainOverDefault(), "common-gain")
	}
}

func BenchmarkFig4Incremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(experiments.Options{Seed: int64(i)})
		b.ReportMetric(r.Modified.MeanPower(), "modified-power")
	}
}

func BenchmarkTable3Remy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(experiments.Options{Seed: int64(i)}, false)
		if row := r.Row("Remy-Phi-ideal"); row != nil {
			b.ReportMetric(row.Objective, "ideal-objective")
		}
	}
}

func BenchmarkFig5Diagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(experiments.Options{Seed: int64(i)})
		if r.Best == nil {
			b.Fatal("event not detected")
		}
	}
}

func BenchmarkFlowSharingCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Sharing(experiments.Options{Seed: int64(i)})
		b.ReportMetric(100*r.AtLeast5, "share>=5-%")
	}
}

func BenchmarkAblationCadence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationCadence(experiments.Options{Seed: int64(i)})
		if row := r.Row("oracle (continuous)"); row != nil {
			b.ReportMetric(row.Power, "oracle-power")
		}
	}
}

func BenchmarkAblationBuckets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.AblationBuckets(experiments.Options{Seed: int64(i)}).Rows) != 3 {
			b.Fatal("bad ablation")
		}
	}
}

func BenchmarkAblationQueueDiscipline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.AblationQueueDiscipline(experiments.Options{Seed: int64(i)}).Rows) != 2 {
			b.Fatal("bad ablation")
		}
	}
}

// ---- Substrate microbenchmarks ----

func BenchmarkSimEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Millisecond, func() {})
		if eng.Len() > 1024 {
			eng.RunUntil(eng.Now() + 10*sim.Second)
		}
	}
	eng.Run()
}

func BenchmarkLinkForwarding(b *testing.B) {
	eng := sim.NewEngine()
	var delivered int
	l := sim.NewLink(eng, "l", 1_000_000_000, sim.Microsecond, 1<<20, recvFunc(func(p *sim.Packet) { delivered++ }))
	p := &sim.Packet{Size: 1500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Send(p)
		if l.QueuedPackets() > 256 {
			eng.Run()
		}
	}
	eng.Run()
}

type recvFunc func(p *sim.Packet)

func (f recvFunc) Receive(p *sim.Packet) { f(p) }

// BenchmarkTCPTransfer10MB measures a full 10 MB transfer (packet-level,
// including SACK bookkeeping) across the default dumbbell.
func BenchmarkTCPTransfer10MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		d := sim.NewDumbbell(eng, sim.DefaultDumbbell(1))
		snd, _ := tcp.Connect(eng, 1, d.Senders[0], d.Receivers[0], 10_000_000,
			tcp.NewCubic(tcp.DefaultCubicParams()), tcp.Config{})
		snd.Start()
		eng.RunUntil(300 * sim.Second)
		if !snd.Done() {
			b.Fatal("transfer incomplete")
		}
	}
}

func BenchmarkCubicOnAck(b *testing.B) {
	cc := tcp.NewCubic(tcp.DefaultCubicParams())
	cc.Init(0)
	info := tcp.AckInfo{RTT: 100 * sim.Millisecond, AckedSegments: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info.Now = sim.Time(i) * sim.Microsecond
		cc.OnAck(info)
	}
}

func BenchmarkRemyOnAck(b *testing.B) {
	cc := remy.NewCC(remy.DefaultPhiTable(), remy.StaticUtil(0.5))
	cc.Init(0)
	info := tcp.AckInfo{RTT: 100 * sim.Millisecond, AckedSegments: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info.Now = sim.Time(i) * sim.Microsecond
		info.SentAt = info.Now - 100*sim.Millisecond
		cc.OnAck(info)
	}
}

func BenchmarkScenarioRun(b *testing.B) {
	sc := workload.Scenario{
		Dumbbell:    sim.DefaultDumbbell(4),
		MeanOnBytes: 100_000,
		MeanOffTime: 500 * sim.Millisecond,
		Duration:    20 * sim.Second,
		CC: func(int) func() tcp.CongestionControl {
			return func() tcp.CongestionControl { return tcp.NewCubic(tcp.DefaultCubicParams()) }
		},
	}
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(i)
		r := workload.Run(sc)
		if len(r.Flows) == 0 {
			b.Fatal("no flows")
		}
	}
}

func BenchmarkWireLookupRoundTrip(b *testing.B) {
	backend := phi.NewServer(func() sim.Time { return sim.Time(time.Now().UnixNano()) }, phi.ServerConfig{})
	srv := phiwire.NewServer(backend, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()
	client := phiwire.Dial(ln.Addr().String(), time.Second)
	defer client.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Lookup("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIPFIXEncode(b *testing.B) {
	cfg := ipfix.DefaultSynthConfig()
	cfg.Flows = 10000
	records := ipfix.Generate(cfg, 1)[:500]
	enc := ipfix.NewEncoder(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(uint32(i), records); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(records)))
}

func BenchmarkIPFIXDecode(b *testing.B) {
	cfg := ipfix.DefaultSynthConfig()
	cfg.Flows = 10000
	records := ipfix.Generate(cfg, 1)[:500]
	enc := ipfix.NewEncoder(1)
	msg, err := enc.Encode(0, records)
	if err != nil {
		b.Fatal(err)
	}
	dec := ipfix.NewDecoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(records)))
}

func BenchmarkDiagnosisScan(b *testing.B) {
	cfg := diagnosis.DefaultGenConfig()
	cfg.Outage = &diagnosis.Outage{ISP: "isp-1", Metro: "london",
		StartMinute: 3000, DurationMin: 120, Severity: 0.9}
	store := diagnosis.Generate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(diagnosis.Scan(store, diagnosis.DetectConfig{})) == 0 {
			b.Fatal("no findings")
		}
	}
}

func BenchmarkSharingAnalysis(b *testing.B) {
	cfg := ipfix.DefaultSynthConfig()
	cfg.Flows = 50000
	records := ipfix.Generate(cfg, ipfix.DefaultSamplingRate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := ipfix.AnalyzeSharing(records)
		if a.Slices == 0 {
			b.Fatal("no slices")
		}
	}
}
