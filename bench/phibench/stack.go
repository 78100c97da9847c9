package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/quality"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

const shardCount = 4

var (
	serverConfig   = phi.ServerConfig{Window: window}
	frontendConfig = cluster.FrontendConfig{ReplicateReports: true} // the phi-cluster default
)

// stackOptions says how one run assembles a workload's stack.
type stackOptions struct {
	seed     int64
	wire     bool      // cross a loopback socket (spec.wire unless a sub-run bypasses it)
	observed bool      // attach the observers (spec.observed unless a sub-run strips them)
	rec      *recorder // non-nil: put the decorators at the seams
}

// stack is one assembled serving stack with its preload applied.
type stack struct {
	spec  spec
	clock *evidenceClock
	keys  []phi.PathKey
	// frontends holds the one frontend both workers share — or, under
	// trace, one per worker over the same shards, so that each worker's
	// tracedConns know whose calls they time. Set-up goes through the
	// first.
	frontends []*cluster.Frontend
	shards    []*cluster.Shard // cluster workloads
	fleet     *fleet.Fleet     // fleet workloads
	clients   []*phiwire.Client
	stations  [workers]station
	// srvWire and cliWire count frames, syscalls and bytes at both ends
	// of the socket; attached on traced and observed stacks only.
	srvWire, cliWire *obs.WireCounters
	stops            []func()

	lookupsSent, reportsSent uint64 // by set-up; the workers add theirs
}

// buildStack constructs the stack, listens and dials, registers every
// path, and plays in the preload. All of it is what setup_s times.
func buildStack(sp spec, o stackOptions) (*stack, error) {
	st := &stack{spec: sp, clock: newEvidenceClock(sp.rate), keys: sp.keys()}

	// The untraced stack comes from the constructors the daemons use.
	// The traced one is the same parts put together by hand, so that a
	// tracedConn can sit between each frontend and each shard or member.
	var cl *cluster.Cluster
	switch {
	case sp.fleet && o.rec == nil:
		st.fleet = fleet.New(fleet.Config{Shards: shardCount, Clock: st.clock.Now, Server: serverConfig, Frontend: frontendConfig})
		st.frontends = []*cluster.Frontend{st.fleet.Frontend}
	case sp.fleet:
		ring := cluster.NewRing(shardCount, 0)
		members := make([]*fleet.Member, shardCount)
		shards := make([]tracedShard, shardCount)
		for i := range members {
			members[i] = fleet.NewMember(i, st.clock.Now, serverConfig, 0)
			shards[i] = members[i]
		}
		st.frontends = tracedFrontends(o.rec, ring, shards)
		fe := st.frontends[0]
		st.fleet = &fleet.Fleet{Ring: ring, Members: members, Frontend: fe,
			Controller: fleet.NewController(members, fe, nil, fleet.ControllerConfig{})}
	case o.rec == nil:
		cl = cluster.New(cluster.Config{Shards: shardCount, Clock: st.clock.Now, Server: serverConfig, Frontend: frontendConfig})
		st.shards, st.frontends = cl.Shards, []*cluster.Frontend{cl.Frontend}
	default:
		ring := cluster.NewRing(shardCount, 0)
		st.shards = make([]*cluster.Shard, shardCount)
		shards := make([]tracedShard, shardCount)
		for i := range shards {
			st.shards[i] = cluster.NewShard(i, st.clock.Now, serverConfig)
			shards[i] = st.shards[i]
		}
		st.frontends = tracedFrontends(o.rec, ring, shards)
		cl = &cluster.Cluster{Ring: ring, Shards: st.shards, Frontend: st.frontends[0]}
	}

	if o.rec != nil || o.observed {
		st.srvWire, st.cliWire = obs.NewWireCounters(), obs.NewWireCounters()
	}
	var obsv *observers
	if o.observed {
		if cl == nil {
			return nil, fmt.Errorf("%s: observers attach to a cluster stack only", sp.name)
		}
		obsv = attachObservers(st, cl)
	}

	var backends [workers]phiwire.Backend
	for w := range backends {
		backends[w] = st.frontends[0]
		if o.rec != nil {
			backends[w] = &tracedBackend{r: o.rec, w: w, inner: st.frontends[w]}
		}
	}
	if !o.wire {
		for w := range st.stations {
			st.stations[w] = backends[w]
		}
	} else {
		// One server for both connections, as deployed — except under
		// trace, where each worker's tracedBackend needs its own.
		nservers := 1
		if o.rec != nil {
			nservers = workers
		}
		addrs := make([]string, nservers)
		for i := range addrs {
			srv := phiwire.NewServer(backends[i], nil)
			srv.SetWire(st.srvWire)
			obsv.instrumentServer(srv)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				st.close()
				return nil, err
			}
			addrs[i] = ln.Addr().String()
			go srv.Serve(ln) // returns net.ErrClosed at st.close
			st.stops = append(st.stops, func() { srv.Close() })
		}
		for w := range st.stations {
			c := phiwire.Dial(addrs[w%nservers], 0)
			c.SetWire(st.cliWire)
			obsv.instrumentClient(c)
			st.clients = append(st.clients, c)
			st.stations[w] = c
			if o.rec != nil {
				st.stations[w] = &tracedStation{r: o.rec, w: w, inner: c}
			}
		}
	}

	for _, k := range st.keys {
		st.frontends[0].RegisterPath(k, pathCapacityBps)
	}
	if err := playPreload(sp, o.seed, st.keys, st.frontends[0], st.clock); err != nil {
		st.close()
		return nil, err
	}
	st.reportsSent = uint64(sp.preloadLifecycles() * sp.reportsPerLifecycle())
	// The client dials on first use; make that part of set-up.
	for _, s := range st.stations {
		if _, err := s.Lookup(st.keys[0]); err != nil {
			st.close()
			return nil, fmt.Errorf("first lookup: %w", err)
		}
		st.lookupsSent++
	}
	return st, nil
}

// tracedFrontends builds one frontend per worker over the same shards,
// each reaching them through tracedConns of its own.
func tracedFrontends(rec *recorder, ring *cluster.Ring, shards []tracedShard) []*cluster.Frontend {
	fes := make([]*cluster.Frontend, workers)
	for w := range fes {
		conns := make([]cluster.Conn, len(shards))
		for i, sh := range shards {
			conns[i] = &tracedConn{r: rec, w: w, shard: i, inner: sh}
		}
		fes[w] = cluster.NewFrontend(ring, conns, frontendConfig)
	}
	return fes
}

// frontendStats sums the routing counters of every frontend.
func (st *stack) frontendStats() cluster.FrontendStats {
	var sum cluster.FrontendStats
	for _, fe := range st.frontends {
		fs := fe.Stats()
		sum.Lookups += fs.Lookups
		sum.Reports += fs.Reports
		sum.Failovers += fs.Failovers
		sum.Degraded += fs.Degraded
		sum.Mirrored += fs.Mirrored
		sum.Retries += fs.Retries
	}
	return sum
}

// reporter is the report half of a Backend: what preload and the bare
// replay drive.
type reporter interface {
	ReportStart(path phi.PathKey) error
	ReportProgress(path phi.PathKey, r phi.Report) error
	ReportEnd(path phi.PathKey, r phi.Report) error
}

// playReports sends one lifecycle's reports.
func playReports(sp spec, dst reporter, key phi.PathKey, l lifecycle) error {
	if err := dst.ReportStart(key); err != nil {
		return err
	}
	rep := l.report(sp.progress + 1)
	for i := 0; i < sp.progress; i++ {
		if err := dst.ReportProgress(key, rep); err != nil {
			return err
		}
	}
	return dst.ReportEnd(key, rep)
}

// playPreload drives the preload stream of a seed into dst, advancing
// clock one step per lifecycle exactly as the measured loop does.
func playPreload(sp spec, seed int64, keys []phi.PathKey, dst reporter, clock *evidenceClock) error {
	g := newGenerator(sp, seed, streamPreload)
	for i := 0; i < sp.preloadLifecycles(); i++ {
		l := g.next()
		if err := playReports(sp, dst, keys[l.path], l); err != nil {
			return fmt.Errorf("preload lifecycle %d: %w", i, err)
		}
		clock.done.Add(1)
	}
	return nil
}

// startBackground starts what the daemon starts once it is serving: on a
// fleet stack, the remediation controller.
func (st *stack) startBackground() {
	if st.fleet != nil {
		st.stops = append(st.stops, st.fleet.Start())
	}
}

func (st *stack) close() {
	for _, c := range st.clients {
		c.Close()
	}
	for i := len(st.stops) - 1; i >= 0; i-- {
		st.stops[i]()
	}
	st.clients, st.stops = nil, nil
}

// primaries lists the shards that answer lookups: the cluster's shards,
// or each fleet member's current primary.
func (st *stack) primaries() []*cluster.Shard {
	if st.fleet == nil {
		return st.shards
	}
	out := make([]*cluster.Shard, len(st.fleet.Members))
	for i, m := range st.fleet.Members {
		out[i] = m.Primary()
	}
	return out
}

// observers is everything phi-cluster -metrics-addr -trace -stages
// -health attaches, wired as cmd/phi-cluster wires it. A nil *observers
// instruments nothing.
type observers struct {
	reg     *telemetry.Registry
	tracer  *trace.Tracer
	monitor *health.Monitor
	sampler *obs.Sampler
	// client is the tracer phi-load -trace would own in its own
	// process; with it set the connection negotiates the trace header.
	client *trace.Tracer
}

func attachObservers(st *stack, cl *cluster.Cluster) *observers {
	o := &observers{reg: telemetry.NewRegistry(), client: trace.NewTracer(trace.Config{})}
	cl.Instrument(o.reg)
	o.tracer = trace.NewTracer(trace.Config{})
	cl.Trace(o.tracer)
	o.tracer.Collector().AttachStages(trace.NewStageAggregator())
	q := quality.New(quality.Config{Registry: o.reg})
	cl.Quality(q)
	o.monitor = health.NewMonitor(health.Config{BucketDur: time.Second, Shards: shardCount})
	o.monitor.SetTracer(o.tracer)
	o.monitor.SetMetrics(health.NewMetrics(o.reg))
	cl.Health(o.monitor)
	o.monitor.SetQualitySource(q.HealthCheck)
	// A traced stack's further frontends get what cl gave the first.
	for _, fe := range st.frontends[1:] {
		fe.SetMetrics(cluster.NewFrontendMetrics(o.reg, shardCount))
		fe.SetTracer(o.tracer)
		fe.SetQuality(q)
		fe.SetHealth(o.monitor)
	}
	o.sampler = obs.NewSampler(obs.SamplerConfig{Registry: o.reg})
	o.sampler.SetWire("server", st.srvWire)
	o.sampler.AddCollect(st.srvWire.Publish(o.reg, "phiwire_server_wire"))
	st.stops = append(st.stops, o.monitor.Start(), o.sampler.Start())
	return o
}

func (o *observers) instrumentServer(srv *phiwire.Server) {
	if o == nil {
		return
	}
	srv.SetMetrics(phiwire.NewServerMetrics(o.reg))
	srv.SetTracer(o.tracer)
	srv.SetHealth(o.monitor)
}

func (o *observers) instrumentClient(c *phiwire.Client) {
	if o == nil {
		return
	}
	c.SetTracer(o.client)
}
