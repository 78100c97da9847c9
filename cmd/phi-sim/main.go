// Command phi-sim runs one dumbbell simulation and prints its
// measurements: the quickest way to poke at the simulator and compare
// congestion-control schemes, with and without Phi coordination.
//
// Usage:
//
//	phi-sim -senders 8 -cc cubic
//	phi-sim -senders 8 -cc cubic-phi
//	phi-sim -senders 8 -cc remy-phi -duration 120s
//	phi-sim -senders 20 -longrunning -cc cubic -beta 0.8
//	phi-sim -longrunning -probe-interval 100ms -probe-csv probe.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	mrand "math/rand"
	"os"
	"time"

	"repro/internal/phi"
	"repro/internal/remy"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/workload"
)

func main() {
	var (
		senders     = flag.Int("senders", 8, "sender/receiver pairs")
		rate        = flag.Int64("rate", 15_000_000, "bottleneck rate, bit/s")
		rtt         = flag.Duration("rtt", 150*time.Millisecond, "propagation RTT")
		buffer      = flag.Float64("buffer", 5, "bottleneck buffer, multiples of BDP")
		duration    = flag.Duration("duration", 60*time.Second, "simulated horizon")
		onBytes     = flag.Int64("on", 100_000, "mean transfer size, bytes")
		offTime     = flag.Duration("off", 500*time.Millisecond, "mean idle time")
		longRunning = flag.Bool("longrunning", false, "persistent flows instead of on/off")
		ccName      = flag.String("cc", "cubic", "cubic | cubic-phi | cubic-phi-adaptive | newreno | remy | remy-phi | remy-phi-ideal")
		iw          = flag.Int("iw", 2, "cubic initial window (segments)")
		ssthresh    = flag.Int("ssthresh", 65536, "cubic initial ssthresh (segments)")
		beta        = flag.Float64("beta", 0.2, "cubic beta")
		seed        = flag.Int64("seed", 1, "run seed")
		disc        = flag.String("disc", "droptail", "bottleneck queue discipline: droptail | red | red-ecn")
		delack      = flag.Bool("delack", false, "delayed acknowledgments at receivers")
		ecn         = flag.Bool("ecn", false, "ECN-capable senders (pair with -disc red-ecn)")
		tracePath   = flag.String("trace", "", "write an ns-2-style bottleneck packet trace to this file")

		probeEvery = flag.Duration("probe-interval", 0, "sample the bottleneck (and long-running flows) on this virtual-time cadence")
		probeCSV   = flag.String("probe-csv", "", "write the probe time series as CSV to this file (requires -probe-interval)")
		probeJSON  = flag.String("probe-json", "", "write the probe time series as JSON to this file (requires -probe-interval)")
	)
	flag.Parse()
	if (*probeCSV != "" || *probeJSON != "") && *probeEvery <= 0 {
		log.Fatal("-probe-csv/-probe-json need -probe-interval > 0")
	}

	db := sim.DumbbellConfig{
		Senders:        *senders,
		BottleneckRate: *rate,
		RTT:            sim.Time(rtt.Nanoseconds()),
		BufferBDP:      *buffer,
		AccessRate:     1_000_000_000,
	}
	bufBytes := int(*buffer * float64(*rate) / 8 * rtt.Seconds())
	switch *disc {
	case "droptail":
	case "red", "red-ecn":
		red := sim.NewRED(bufBytes, mrand.New(mrand.NewSource(*seed)))
		red.MarkECT = *disc == "red-ecn"
		db.Discipline = red
	default:
		log.Fatalf("unknown -disc %q", *disc)
	}
	sc := workload.Scenario{
		Dumbbell:    db,
		MeanOnBytes: *onBytes,
		MeanOffTime: sim.Time(offTime.Nanoseconds()),
		LongRunning: *longRunning,
		Duration:    sim.Time(duration.Nanoseconds()),
		Warmup:      sim.Time(duration.Nanoseconds()) / 10,
		Seed:        *seed,
		DelayAcks:   *delack,
		TCP:         tcp.Config{ECN: *ecn},
	}
	var tracer *sim.WriterTracer
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		traceFile = f
		tracer = sim.NewWriterTracer(f)
	}

	var probe *sim.RateProbe
	needProbe := false
	params := tcp.CubicParams{InitialWindow: *iw, InitialSsthresh: *ssthresh, Beta: *beta}
	switch *ccName {
	case "cubic":
		sc.CC = func(int) func() tcp.CongestionControl {
			return func() tcp.CongestionControl { return tcp.NewCubic(params) }
		}
	case "newreno":
		sc.CC = func(int) func() tcp.CongestionControl {
			return func() tcp.CongestionControl { return tcp.NewNewReno() }
		}
	case "cubic-phi":
		// Context-driven parameters from the live oracle + default policy.
		needProbe = true
		policy := phi.DefaultPolicy()
		sc.CC = func(int) func() tcp.CongestionControl {
			return func() tcp.CongestionControl {
				ctx := phi.Context{U: probe.Utilization()}
				return tcp.NewCubic(policy.Params(ctx))
			}
		}
	case "cubic-phi-adaptive":
		// Section 2.2.2's long-connection variant: periodic context
		// refresh within each connection.
		needProbe = true
		sc.CC = func(int) func() tcp.CongestionControl {
			return func() tcp.CongestionControl {
				oracle := phi.Oracle{Fn: func() phi.Context {
					return phi.Context{U: probe.Utilization()}
				}}
				return phi.NewAdaptiveCubic(oracle, phi.DefaultPolicy(), "bn", 5*sim.Second)
			}
		}
	case "remy", "remy-phi", "remy-phi-ideal":
		table := remy.DefaultTable()
		if *ccName != "remy" {
			table = remy.DefaultPhiTable()
			needProbe = true
		}
		mode := *ccName
		sc.CC = func(int) func() tcp.CongestionControl {
			return func() tcp.CongestionControl {
				var util remy.UtilSource
				switch mode {
				case "remy-phi":
					util = remy.StaticUtil(probe.Utilization())
				case "remy-phi-ideal":
					util = remy.UtilFunc(func() float64 { return probe.Utilization() })
				}
				cc := remy.NewCC(table, util)
				cc.PhiInitialWindow = util != nil
				return cc
			}
		}
	default:
		log.Fatalf("unknown -cc %q", *ccName)
	}
	prevTopo := sc.OnTopology
	sc.OnTopology = func(eng *sim.Engine, d *sim.Dumbbell) {
		if prevTopo != nil {
			prevTopo(eng, d)
		}
		if needProbe {
			probe = sim.NewRateProbe(eng, d.Bottleneck.Monitor(), 100*sim.Millisecond, sim.Second)
		}
		if tracer != nil {
			d.Bottleneck.SetTracer(tracer)
		}
	}

	sc.ProbeInterval = sim.Time(probeEvery.Nanoseconds())

	res := workload.Run(sc)
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			log.Fatalf("trace flush: %v", err)
		}
		traceFile.Close()
		fmt.Printf("trace             %s (%d events)\n", *tracePath, tracer.Events)
	}
	fmt.Printf("scheme            %s\n", *ccName)
	fmt.Printf("flows             %d (%d completed)\n", len(res.Flows), res.CompletedFlows())
	fmt.Printf("utilization       %.1f%%\n", 100*res.Utilization)
	fmt.Printf("link loss         %.3f%%\n", 100*res.LinkLossRate)
	fmt.Printf("agg throughput    %.2f Mbit/s\n", res.AggThroughputMbps())
	fmt.Printf("median flow thr   %.2f Mbit/s\n", res.MedianThroughputMbps())
	fmt.Printf("mean queue delay  %.1f ms (flow RTT above propagation)\n", res.MeanQueueingDelayMs())
	fmt.Printf("median qdelay     %.1f ms\n", res.MedianQueueingDelayMs())
	fmt.Printf("power P_l         %.2f\n", res.LossPower())
	fmt.Printf("objective ln(P)   %.2f\n", res.LogPower())

	if res.Probe != nil {
		dump := res.Probe.Dump()
		fmt.Printf("probe             %d link + %d flow series at %v cadence\n",
			len(dump.Links), len(dump.Flows), *probeEvery)
		write := func(path string, emit func(io.Writer) error) {
			if path == "" {
				return
			}
			f, err := os.Create(path)
			if err != nil {
				log.Fatalf("probe export: %v", err)
			}
			if err := emit(f); err != nil {
				log.Fatalf("probe export %s: %v", path, err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("probe export %s: %v", path, err)
			}
			fmt.Printf("probe export      %s\n", path)
		}
		write(*probeCSV, dump.WriteCSV)
		write(*probeJSON, dump.WriteJSON)
	}
}
