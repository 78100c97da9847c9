package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/fleet"
)

// Chaos mode: while the normal load runs, kill fleet primaries through
// the server's /debug/fleet endpoint on a schedule and measure how long
// the remediation controller takes to return each member to healthy.
// The run FAILS (exit 1) if any lifecycle was lost (transport or degrade
// error), if any remediation exceeded -chaos-bound, or if the schedule
// could not complete — the executable assertion behind the fleet's
// "zero lost lifecycles, bounded time-to-remediate" claim.

// chaosKill is one scheduled fault and its measured remediation.
type chaosKill struct {
	Shard int `json:"shard"`
	// RemediateS is kill -> member healthy again (controller-driven:
	// promote + resync + breaker reset), as observed by polling.
	RemediateS float64 `json:"remediate_s"`
	Bounded    bool    `json:"bounded"`
}

// chaosResult is the JSON block summarizing the chaos schedule.
type chaosResult struct {
	URL       string      `json:"url"`
	Shards    int         `json:"shards"`
	BoundS    float64     `json:"bound_s"`
	Kills     []chaosKill `json:"kills"`
	Planned   int         `json:"planned_kills"`
	Completed int         `json:"completed_kills"`
	// Passed is the schedule-level verdict: every planned kill executed
	// and remediated inside the bound. (Lost lifecycles are judged in
	// main against the load counters.)
	Passed bool   `json:"passed"`
	Error  string `json:"error,omitempty"`
}

// chaosCtl drives cfg's kill schedule against cfg.ChaosURL, the target's
// /debug/fleet endpoint.
type chaosCtl struct {
	cfg runConfig

	mu  sync.Mutex
	res chaosResult
}

func newChaosCtl(cfg runConfig) *chaosCtl {
	return &chaosCtl{cfg: cfg, res: chaosResult{URL: cfg.ChaosURL, BoundS: cfg.ChaosBoundS, Planned: cfg.ChaosKills}}
}

// fetch GETs the fleet status (optionally with an op query).
func (c *chaosCtl) fetch(query string) (*fleet.FleetStatus, error) {
	raw, err := fetchJSON(c.cfg.ChaosURL + query)
	if err != nil {
		return nil, err
	}
	var st fleet.FleetStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// healthy reports whether member i is fully converged.
func (c *chaosCtl) healthy(i int) bool {
	st, err := c.fetch("")
	if err != nil || i >= len(st.Members) {
		return false
	}
	m := st.Members[i]
	return m.PrimaryUp && m.BackupUp && m.BackupLive && m.Class == "healthy" && !m.BreakerOpen
}

// waitHealthy polls member i until it converges or the deadline passes,
// returning how long it took.
func (c *chaosCtl) waitHealthy(i int, bound time.Duration, stop <-chan struct{}) (time.Duration, bool) {
	start := time.Now()
	for time.Since(start) < bound {
		if c.healthy(i) {
			return time.Since(start), true
		}
		select {
		case <-stop:
			return time.Since(start), false
		case <-time.After(50 * time.Millisecond):
		}
	}
	return time.Since(start), false
}

// fail records a schedule-level failure.
func (c *chaosCtl) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.res.Error == "" {
		c.res.Error = fmt.Sprintf(format, args...)
	}
}

// start launches the kill schedule.
func (c *chaosCtl) start(stop <-chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-stop:
			return
		case <-time.After(time.Duration(c.cfg.ChaosFirstS * float64(time.Second))):
		}

		st, err := c.fetch("")
		if err != nil {
			c.fail("discover fleet: %v", err)
			return
		}
		if len(st.Members) == 0 {
			c.fail("%s reports no members — is the server running with -fleet?", c.cfg.ChaosURL)
			return
		}
		c.mu.Lock()
		c.res.Shards = len(st.Members)
		c.mu.Unlock()

		bound := time.Duration(c.cfg.ChaosBoundS * float64(time.Second))
		for k := 0; k < c.cfg.ChaosKills; k++ {
			victim := k % len(st.Members)

			// One fault at a time: only kill a converged member, so each
			// measurement isolates one remediation cycle.
			if _, ok := c.waitHealthy(victim, bound, stop); !ok {
				c.fail("member %d did not converge before kill %d", victim, k)
				return
			}
			if _, err := c.fetch(fmt.Sprintf("?op=kill&shard=%d", victim)); err != nil {
				c.fail("kill %d (shard %d): %v", k, victim, err)
				return
			}
			took, ok := c.waitHealthy(victim, bound, stop)
			c.mu.Lock()
			c.res.Kills = append(c.res.Kills, chaosKill{
				Shard: victim, RemediateS: took.Seconds(), Bounded: ok,
			})
			c.res.Completed++
			c.mu.Unlock()
			if !ok {
				c.fail("member %d not remediated within %.1fs after kill %d", victim, c.cfg.ChaosBoundS, k)
				return
			}

			select {
			case <-stop:
				return
			case <-time.After(time.Duration(c.cfg.ChaosEveryS * float64(time.Second))):
			}
		}
	}()
}

// summary finalizes the verdict once the run is over.
func (c *chaosCtl) summary() *chaosResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.Passed = c.res.Error == "" && c.res.Completed == c.res.Planned
	for _, k := range c.res.Kills {
		if !k.Bounded {
			c.res.Passed = false
		}
	}
	r := c.res
	return &r
}
