package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// resolveDebug GETs <-debug-url>/debug/ (the index telemetry.Serve
// publishes) once and points every scrape the configured run will make
// at the endpoint the index lists for it, filling in the derived URL
// fields of cfg and sp. Evidence scrapes (saturate mode's stages,
// resources, context, profiles) are skipped when the target does not
// serve them; scrapes the mode cannot do without (-chaos → /debug/fleet,
// -fault-match detection → /debug/health) and an unreachable base are
// errors, reported with the rest of start-up validation — before any
// load is sent — instead of as a fetch failure mid-run.
func resolveDebug(cfg *runConfig, sp *satParams) []error {
	base := strings.TrimSuffix(cfg.DebugURL, "/")
	raw, err := fetchJSON(base + "/debug/")
	if err != nil {
		return []error{fmt.Errorf("-debug-url: %w", err)}
	}
	var idx struct {
		Endpoints []struct{ Path string } `json:"endpoints"`
	}
	if err := json.Unmarshal(raw, &idx); err != nil || len(idx.Endpoints) == 0 {
		return []error{fmt.Errorf("-debug-url: %s/debug/ is not a debug endpoint index", base)}
	}
	listed := make(map[string]string, len(idx.Endpoints)) // path -> URL
	for _, e := range idx.Endpoints {
		listed[e.Path] = base + e.Path
	}

	var errs []error
	if cfg.Chaos {
		if cfg.ChaosURL = listed["/debug/fleet"]; cfg.ChaosURL == "" {
			errs = append(errs, fmt.Errorf("-chaos needs /debug/fleet, which %s does not list (is the server running with -fleet?)", base))
		}
	}
	if cfg.FaultMatch != "" {
		if cfg.HealthURL = listed["/debug/health"]; cfg.HealthURL == "" {
			errs = append(errs, fmt.Errorf("-fault-match detection needs /debug/health, which %s does not list (is the server running with -health?)", base))
		}
	}
	if cfg.Mode == "saturate" {
		sp.StagesURL = listed["/debug/stages"]
		sp.ResourcesURL = listed["/debug/resources"]
		sp.ContextURL = listed["/debug/context"]
		if sp.ProfileS > 0 && listed["/debug/pprof/profile"] != "" {
			sp.PprofURL = base
		}
	}
	return errs
}
