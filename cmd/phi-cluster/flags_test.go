package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
	"time"

	tlog "repro/internal/trace/log"
)

func TestParseFlagsDefaultsAndImplications(t *testing.T) {
	c, errs := parseFlags(nil)
	if len(errs) != 0 {
		t.Fatalf("defaults rejected: %v", errs)
	}
	if c.shards != 4 || c.listen != "127.0.0.1:7731" || c.snapEvery != 30*time.Second ||
		!c.replicate || c.logLevel != tlog.LevelInfo || c.clock == nil {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.fleet || c.health || c.trace {
		t.Fatalf("optional layers on by default: %+v", c)
	}

	c, errs = parseFlags([]string{"-fleet", "-stages", "-path", "a=100", "-path", "b=200"})
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if !c.fleet || !c.health || !c.trace {
		t.Fatalf("-fleet must imply -health, -stages must imply -trace: %+v", c)
	}
	if len(c.paths) != 2 || c.paths[1].name != "b" || c.paths[1].capacity != 200 {
		t.Fatalf("paths = %v", c.paths)
	}
	if c, _ = parseFlags([]string{"-health"}); !c.health || c.fleet {
		t.Fatalf("-health must not turn -fleet on: %+v", c)
	}
	// -shards 1 is the monolith, not an error.
	if _, errs = parseFlags([]string{"-shards", "1"}); len(errs) != 0 {
		t.Fatalf("-shards 1 rejected: %v", errs)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // the exact message
	}{
		{"zero shards", []string{"-shards", "0"},
			"-shards must be >= 1 (got 0)"},
		{"negative shards", []string{"-shards", "-2"},
			"-shards must be >= 1 (got -2)"},
		{"zero snapshot interval", []string{"-snapshot-dir", "d", "-snapshot-interval", "0"},
			"-snapshot-interval must be > 0 with -snapshot-dir (got 0s)"},
		{"negative snapshot interval", []string{"-snapshot-dir", "d", "-snapshot-interval", "-1s"},
			"-snapshot-interval must be > 0 with -snapshot-dir (got -1s)"},
		{"prof ring without metrics", []string{"-prof-ring-dir", "r"},
			"-prof-ring-dir requires -metrics-addr (the ring is served and triggered there)"},
		{"bad log level", []string{"-log-level", "loud"},
			`-log-level: log: unknown level "loud" (want debug|info|warn|error)`},
		{"stray argument", []string{"extra"},
			"unexpected arguments: extra"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, errs := parseFlags(tc.args)
			if len(errs) != 1 || errs[0].Error() != tc.want {
				t.Fatalf("want exactly %q, got %v", tc.want, errs)
			}
		})
	}

	// A zero interval is only a problem when snapshots are on.
	if _, errs := parseFlags([]string{"-snapshot-interval", "0"}); len(errs) != 0 {
		t.Fatalf("-snapshot-interval 0 without -snapshot-dir rejected: %v", errs)
	}
	if _, errs := parseFlags([]string{"-prof-ring-dir", "r", "-metrics-addr", "127.0.0.1:0"}); len(errs) != 0 {
		t.Fatalf("-prof-ring-dir with -metrics-addr rejected: %v", errs)
	}
}

func TestParseFlagsReportsAllProblemsAtOnce(t *testing.T) {
	_, errs := parseFlags([]string{"-shards", "0", "-snapshot-dir", "d", "-snapshot-interval", "0",
		"-prof-ring-dir", "r", "-log-level", "loud"})
	if len(errs) != 4 {
		t.Fatalf("want 4 accumulated errors, got %v", errs)
	}
}

func TestParseFlagsSyntaxErrorStandsAlone(t *testing.T) {
	_, errs := parseFlags([]string{"-no-such-flag", "-shards", "0"})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "no-such-flag") {
		t.Fatalf("want the lone syntax error, got %v", errs)
	}
	// The dedicated debug listeners are gone: everything is on -metrics-addr.
	for _, gone := range []string{"-health-addr", "-fleet-addr"} {
		if _, errs = parseFlags([]string{gone, "127.0.0.1:0"}); len(errs) != 1 || !strings.Contains(errs[0].Error(), "not defined") {
			t.Fatalf("%s: want the lone flag-syntax error, got %v", gone, errs)
		}
	}
	if _, errs = parseFlags([]string{"-path", "nocapacity"}); len(errs) != 1 {
		t.Fatalf("bad -path value: %v", errs)
	}
	if _, errs = parseFlags([]string{"-h"}); len(errs) != 1 || !errors.Is(errs[0], flag.ErrHelp) {
		t.Fatalf("-h must surface flag.ErrHelp, got %v", errs)
	}
}
