// IPFIX load mode. Where the closed/open modes drive the cooperative
// wire protocol, -mode ipfix exercises the passive-ingest path: it floods
// a running server's -ipfix-addr collector with synthetic TCP-template
// export datagrams over real UDP, optionally paced to a records/s target.
// The server needs no cooperation from this process beyond the datagrams
// themselves — that is the point of passive ingest. (The in-process
// pipeline numbers live in internal/ingest: BenchmarkPipelineIngest and
// TestPipelineOverloadShedsAndCounts.)
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/ipfix"
	"repro/internal/ipfix/synth"
	tlog "repro/internal/trace/log"
)

// ipfixConfig echoes the IPFIX-mode knobs into the result for
// reproducibility, like runConfig does for the wire modes.
type ipfixConfig struct {
	Addr       string  `json:"addr,omitempty"`
	Flows      int     `json:"flows"`
	Paths      int     `json:"paths"`
	LossRate   float64 `json:"loss_rate"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"` // records/s, 0 = unpaced
	DurationS  float64 `json:"duration_s,omitempty"`
	Seed       int64   `json:"seed"`
}

func (c ipfixConfig) validate() []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if c.Flows < 1 {
		fail("-ipfix-flows must be >= 1 (got %d)", c.Flows)
	}
	if c.Paths < 1 || c.Paths > c.Flows {
		fail("-ipfix-paths must be in [1, flows] (got %d with %d flows)", c.Paths, c.Flows)
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		fail("-ipfix-loss must be in [0, 1) (got %v)", c.LossRate)
	}
	if c.Addr == "" {
		fail("-ipfix-addr must not be empty")
	}
	if c.DurationS <= 0 {
		fail("-duration must be > 0 (got %vs)", c.DurationS)
	}
	if c.RatePerSec < 0 {
		fail("-ipfix-rate must be >= 0 (got %v)", c.RatePerSec)
	}
	return errs
}

// runIPFIXMode validates, runs the flood, and writes its JSON result —
// the IPFIX twin of main's wire-mode tail.
func runIPFIXMode(cfg ipfixConfig, out string, logger *tlog.Logger) {
	if errs := cfg.validate(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "phi-load:", e)
		}
		os.Exit(2)
	}
	res, err := runIPFIXFlood(cfg, logger)
	if err != nil {
		logger.Fatal("ipfix run", "err", err)
	}
	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		logger.Fatal("encode result", "err", err)
	}
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		logger.Fatal("write result", "err", err)
	}
	logger.Info("run complete", "mode", "ipfix", "out", out)
}

// ipfixFloodResult summarizes one UDP flood run.
type ipfixFloodResult struct {
	Tool          string      `json:"tool"`
	Mode          string      `json:"mode"`
	Config        ipfixConfig `json:"config"`
	StartedAt     string      `json:"started_at"`
	MeasuredS     float64     `json:"measured_s"`
	Messages      uint64      `json:"messages"`
	Records       uint64      `json:"records"`
	Retransmits   uint64      `json:"retransmits"`
	RecordsPerSec float64     `json:"records_per_sec"`
}

// runIPFIXFlood streams synthetic export datagrams at the collector for
// -duration. Generation is sliced 100 virtual milliseconds at a time so
// pacing reacts quickly; unpaced (-ipfix-rate 0) it pushes as fast as
// the socket accepts, which on loopback comfortably exceeds millions of
// records per minute.
func runIPFIXFlood(cfg ipfixConfig, logger *tlog.Logger) (*ipfixFloodResult, error) {
	exp, err := ipfix.NewExporter(cfg.Addr, uint32(cfg.Seed)+1)
	if err != nil {
		return nil, err
	}
	defer exp.Close()

	stream := synth.NewStream(synth.StreamConfig{
		Flows: cfg.Flows, Paths: cfg.Paths, LossRate: cfg.LossRate, Seed: cfg.Seed,
	})
	enc := ipfix.NewEncoder(uint32(cfg.Seed) + 1)
	logger.Info("ipfix flood starting", "addr", cfg.Addr,
		"flows", cfg.Flows, "paths", cfg.Paths, "rate", cfg.RatePerSec)

	const stepMillis = 100
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.DurationS * float64(time.Second)))
	var messages, sent uint64
	for time.Now().Before(deadline) {
		batch, err := stream.Messages(enc, stepMillis, 400)
		if err != nil {
			return nil, err
		}
		// Pace per message, not per generation slice: smoothing the burst
		// keeps a paced run inside the collector's socket buffer.
		perMsgRecords := float64(stream.Emitted-sent) / float64(len(batch))
		for i, m := range batch {
			if err := exp.WriteMessage(m); err != nil {
				return nil, err
			}
			messages++
			if cfg.RatePerSec > 0 {
				soFar := float64(sent) + float64(i+1)*perMsgRecords
				if ahead := soFar/cfg.RatePerSec - time.Since(start).Seconds(); ahead > 0 {
					time.Sleep(time.Duration(ahead * float64(time.Second)))
				}
			}
		}
		sent = stream.Emitted
	}
	measured := time.Since(start)
	return &ipfixFloodResult{
		Tool:          "phi-load",
		Mode:          "ipfix",
		Config:        cfg,
		StartedAt:     start.UTC().Format(time.RFC3339),
		MeasuredS:     measured.Seconds(),
		Messages:      messages,
		Records:       stream.Emitted,
		Retransmits:   stream.Retransmits,
		RecordsPerSec: float64(stream.Emitted) / measured.Seconds(),
	}, nil
}
