package expdesign

import (
	"math"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/mptcpsim"
	"mpquic/internal/netem"
	"mpquic/internal/netem/dynamics"
	"mpquic/internal/sim"
	"mpquic/internal/tcpsim"
	"mpquic/internal/trace"
)

// Protocol identifies one of the four compared stacks.
type Protocol int

// The four protocols of the evaluation.
const (
	ProtoTCP Protocol = iota
	ProtoQUIC
	ProtoMPTCP
	ProtoMPQUIC
)

func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "TCP"
	case ProtoQUIC:
		return "QUIC"
	case ProtoMPTCP:
		return "MPTCP"
	default:
		return "MPQUIC"
	}
}

// Multipath reports whether the protocol uses both paths.
func (p Protocol) Multipath() bool { return p == ProtoMPTCP || p == ProtoMPQUIC }

// RunResult is the outcome of one simulation run.
type RunResult struct {
	Completed  bool          `json:"completed"`
	Elapsed    time.Duration `json:"elapsed"`
	GoodputBps float64       `json:"goodput_bps"` // achieved goodput (received bytes over elapsed)
	BytesRecvd uint64        `json:"bytes_recvd"`
	// Metrics carries the protocol internals of the (median) run.
	Metrics RunMetrics `json:"metrics"`
}

// PathMetrics is the end-of-run snapshot of one path (QUIC family),
// subflow (MPTCP) or flow (TCP). The grids run GET downloads, so the
// server is the data sender: the send-side fields (bytes/packets sent,
// retransmits, final cwnd, smoothed RTT) come from the server
// endpoint, while BytesRecvd is what the client actually received over
// that path — the per-path byte split of the download.
type PathMetrics struct {
	BytesSent   uint64        `json:"bytes_sent"`
	BytesRecvd  uint64        `json:"bytes_recvd"`
	PacketsSent uint64        `json:"packets_sent"`
	Retransmits uint64        `json:"retransmits"`
	FinalCwnd   int           `json:"final_cwnd"`
	SRTT        time.Duration `json:"srtt"`
}

// RunMetrics aggregates the protocol internals of one run: the
// counters the paper uses to explain its figures (handshake latency,
// loss/retransmission activity, per-path scheduling split). Durations
// serialize as integer nanoseconds (Go time.Duration).
type RunMetrics struct {
	// Handshake is the virtual time at which the client considered the
	// secure handshake complete and could start sending requests.
	Handshake time.Duration `json:"handshake"`
	// Sender-side (server) aggregates.
	PacketsSent     uint64 `json:"packets_sent"`
	PacketsLost     uint64 `json:"packets_lost"`
	Retransmissions uint64 `json:"retransmissions"`
	RTOs            uint64 `json:"rtos"`
	// Paths holds one entry per path/subflow in creation order.
	Paths []PathMetrics `json:"paths"`
	// Series holds the run's per-path time series (cwnd, smoothed RTT,
	// bytes in flight, cumulative bytes), recorded only when sampling
	// was requested (RunOpts.SampleInterval > 0). The omitempty keeps
	// artifacts of sampling-free grids byte-identical to earlier
	// versions (the golden grid tests pin this).
	Series []trace.PathSample `json:"series,omitempty"`
}

// quicMetrics snapshots a (MP)QUIC client/server pair.
func quicMetrics(client, server *core.Conn) RunMetrics {
	m := RunMetrics{Handshake: client.Stats.HandshakeCompleted}
	if server == nil {
		return m
	}
	m.PacketsSent = server.Stats.PacketsSent
	m.PacketsLost = server.Stats.PacketsLost
	m.Retransmissions = server.Stats.Retransmissions
	m.RTOs = server.Stats.RTOs
	for _, sp := range server.Paths() {
		pm := PathMetrics{
			BytesSent:   sp.SentBytes,
			PacketsSent: sp.SentPackets,
			FinalCwnd:   sp.CC().Cwnd(),
			SRTT:        sp.RTT().SmoothedRTT(),
		}
		if cp := client.PathByID(sp.ID); cp != nil {
			pm.BytesRecvd = cp.RecvBytes
		}
		m.Paths = append(m.Paths, pm)
	}
	return m
}

// tcpMetrics snapshots a TCP client/server pair.
func tcpMetrics(client, server *tcpsim.Conn) RunMetrics {
	m := RunMetrics{Handshake: client.Stats.EstablishedAt}
	if server == nil {
		return m
	}
	m.PacketsSent = server.Stats.SegmentsSent
	m.PacketsLost = server.Stats.SegmentsLost
	m.Retransmissions = server.Stats.Retransmits
	m.RTOs = server.Stats.RTOCount
	m.Paths = []PathMetrics{{
		BytesSent:   server.Stats.BytesSent,
		BytesRecvd:  client.BytesReceived(),
		PacketsSent: server.Stats.SegmentsSent,
		Retransmits: server.Stats.Retransmits,
		FinalCwnd:   server.Cwnd(),
		SRTT:        server.RTT().SmoothedRTT(),
	}}
	return m
}

// mptcpMetrics snapshots an MPTCP client/server pair, one PathMetrics
// entry per server subflow.
func mptcpMetrics(client, server *mptcpsim.Conn) RunMetrics {
	m := RunMetrics{Handshake: client.Stats.EstablishedAt}
	if server == nil {
		return m
	}
	m.RTOs = server.Stats.RTOs
	for _, sf := range server.Subflows() {
		m.PacketsSent += sf.SentSegments
		m.PacketsLost += sf.SegmentsLost
		m.Retransmissions += sf.Retransmits
		pm := PathMetrics{
			BytesSent:   sf.SentBytes,
			PacketsSent: sf.SentSegments,
			Retransmits: sf.Retransmits,
			FinalCwnd:   sf.Cwnd(),
			SRTT:        sf.RTT().SmoothedRTT(),
		}
		if csf := client.SubflowByID(sf.ID); csf != nil {
			pm.BytesRecvd = csf.BytesReceived()
		}
		m.Paths = append(m.Paths, pm)
	}
	return m
}

// effectiveRateBps estimates the rate a loss-limited reliable transfer
// can sustain on a path: the link capacity capped by the Mathis bound
// MSS/(RTT·√p) under random loss.
func effectiveRateBps(p netem.PathSpec) float64 {
	rate := p.CapacityMbps * 1e6
	if p.LossRate > 0 {
		rtt := p.RTT.Seconds() + p.QueueDelay.Seconds()/2
		if rtt < 0.01 {
			rtt = 0.01
		}
		mathis := 1378 * 8 / rtt / math.Sqrt(p.LossRate)
		if mathis < rate {
			rate = mathis
		}
	}
	return rate
}

// deadlineFor bounds a run: a generous multiple of the ideal transfer
// time at the effective rate the protocol can actually use (the start
// path for single-path protocols, the better path for multipath),
// floored for handshake-dominated short transfers.
func deadlineFor(sc Scenario, proto Protocol, size uint64, startPath int) time.Duration {
	rate := effectiveRateBps(sc.Paths[startPath])
	if proto.Multipath() {
		if other := effectiveRateBps(sc.Paths[1-startPath]); other > rate {
			rate = other
		}
	}
	ideal := time.Duration(float64(size) * 8 / rate * float64(time.Second))
	// A flaky path only carries traffic for part of each cycle; pad the
	// ideal time by the duty cycle so outages don't misclassify slow
	// but working runs as failures.
	if dyn := sc.Dynamics; dyn != nil && dyn.Kind == DynFlaky && dyn.Period > dyn.Outage {
		ideal = time.Duration(float64(ideal) * float64(dyn.Period) / float64(dyn.Period-dyn.Outage))
	}
	d := 30*ideal + 2*time.Minute
	if d > 6*time.Hour {
		d = 6 * time.Hour
	}
	return d
}

// orderedSpecs reorders the scenario's paths so the connection's
// initial path is index 0 (§4.1 varies the path used to start the
// connection).
func orderedSpecs(sc Scenario, startPath int) [2]netem.PathSpec {
	if startPath == 0 {
		return sc.Paths
	}
	return [2]netem.PathSpec{sc.Paths[1], sc.Paths[0]}
}

// applyDynamics installs the scenario's scripted behaviour on the
// freshly built topology. rng is the run's master PRNG, already past
// the topology's forks: loss-model PRNGs are forked from it in a fixed
// order, so a dynamic run is exactly as reproducible as a static one.
// Scenario path indices are remapped through the same reordering as
// orderedSpecs (startPath becomes topology path 0).
func applyDynamics(clock *sim.Clock, rng *sim.Rand, tp *netem.TwoPathNet, sc Scenario, startPath int) {
	d := sc.Dynamics
	if d == nil {
		return
	}
	topoIdx := func(p int) int {
		if startPath == 1 {
			return 1 - p
		}
		return p
	}
	switch d.Kind {
	case DynBursty:
		// Every lossy link trades its Bernoulli process for a
		// Gilbert–Elliott chain of the same average loss rate. Forks
		// happen in scenario-path order so the draw sequences do not
		// depend on the start path.
		for p := 0; p < 2; p++ {
			spec := sc.Paths[p]
			if spec.LossRate <= 0 {
				continue
			}
			for _, l := range tp.PathLinks(topoIdx(p)) {
				l.SetLossModel(dynamics.NewGilbertElliott(
					rng.Fork(), dynamics.GEFromAverage(spec.LossRate, d.MeanBurstPkts)))
			}
		}
	case DynOscillate:
		dynamics.OscillateRate(topoIdx(d.Path), sc.Paths[d.Path].CapacityMbps, d.Depth, d.Period).
			Apply(clock, tp)
	case DynFlaky:
		// First outage half a period in, so the handshake gets a
		// fighting chance and every cycle thereafter is identical.
		dynamics.Flap(topoIdx(d.Path), d.Period/2, d.Outage, d.Period).Apply(clock, tp)
	}
}

// RunOpts configures the optional observability of a run. The zero
// value disables everything, making RunWithOpts identical to Run.
//
// Determinism contract: every instrument here is a pure observer of
// the simulation — arming any of them never changes a run's schedule,
// timings or metrics. The only artifact-visible effect is the
// RunMetrics.Series field, which is omitted when sampling is off.
type RunOpts struct {
	// SampleInterval, when positive, snapshots the sender-side (server)
	// connection's per-path transport state at this simulated-time
	// cadence into RunResult.Metrics.Series. At a fixed cadence the
	// series is byte-reproducible across same-seed runs.
	SampleInterval time.Duration
	// Tracer, when non-nil, receives the run's protocol events from
	// both endpoints plus the emulator's link lifecycle events.
	Tracer trace.Tracer
	// FlightEvents, when positive, arms a bounded flight recorder of
	// this capacity over the same event stream. The ring is only ever
	// dumped through FlightDump — healthy runs pay no trace I/O.
	FlightEvents int
	// RTOStorm, when positive, classifies a run with at least this many
	// sender RTOs as anomalous ("rto_storm") even if it completed.
	RTOStorm uint64
	// FlightDump receives the armed flight recorder when the run ends
	// anomalously. rep is the repetition index (0 under RunWithOpts;
	// the actual index under RunMedianOpts); anomaly is one of
	// "timeout" (deadline passed), "sim_error" (the simulator aborted)
	// or "rto_storm" (RTOStorm threshold reached).
	FlightDump func(rep int, anomaly string, rec *trace.FlightRecorder)

	// rep is the repetition index reported to FlightDump; set by
	// RunMedianOpts.
	rep int
}

// Run executes one simulation: the given protocol downloading size
// bytes over the scenario, with the connection initiated on startPath,
// seeded with seed. Single-path protocols use startPath only.
func Run(sc Scenario, proto Protocol, size uint64, startPath int, seed uint64) RunResult {
	return RunWithOpts(sc, proto, size, startPath, seed, RunOpts{})
}

// RunWithOpts is Run with observability instruments attached (see
// RunOpts). With a zero opts it is exactly Run.
func RunWithOpts(sc Scenario, proto Protocol, size uint64, startPath int, seed uint64, opts RunOpts) RunResult {
	clock := sim.NewClock()
	clock.Limit = 400_000_000
	specs := orderedSpecs(sc, startPath)
	rng := sim.NewRand(seed)
	tp := netem.NewTwoPath(clock, rng, specs)
	applyDynamics(clock, rng, tp, sc, startPath)
	deadline := deadlineFor(sc, proto, size, startPath)

	// Arm the observers. The flight recorder rides the same tracer hook
	// as a caller-supplied tracer; both see protocol and link events.
	var fr *trace.FlightRecorder
	tracer := opts.Tracer
	if opts.FlightEvents > 0 {
		fr = trace.NewFlightRecorder(opts.FlightEvents)
		if tracer != nil {
			tracer = trace.Multi{tracer, fr}
		} else {
			tracer = fr
		}
	}
	if tracer != nil {
		tp.SetTracer(tracer)
	}

	var (
		done     *time.Duration
		received func() uint64
		collect  func() RunMetrics
		sample   func(rec *trace.SeriesRecorder)
	)
	now := func() time.Duration { return clock.Now().Duration() }

	switch proto {
	case ProtoQUIC, ProtoMPQUIC:
		cfg := core.DefaultSinglePathConfig()
		nPaths := 1
		if proto == ProtoMPQUIC {
			cfg = core.DefaultConfig()
			nPaths = 2
		}
		cfg.HandshakeSeed = seed
		cfg.Tracer = tracer
		lis := core.Listen(tp.Net, cfg, tp.ServerAddrs[:nPaths])
		apps.NewGetServer(lis)
		client := core.Dial(tp.Net, cfg, core.NewConnID(seed), tp.ClientAddrs[:nPaths], tp.ServerAddrs[:nPaths])
		get := apps.NewGetClient(client, size, now, func(r apps.GetResult) {
			el := r.Elapsed()
			done = &el
			clock.Stop()
		})
		received = func() uint64 {
			if s := get.Stream(); s != nil {
				return s.BytesReceived()
			}
			return 0
		}
		collect = func() RunMetrics {
			var server *core.Conn
			if conns := lis.Conns(); len(conns) > 0 {
				server = conns[0]
			}
			return quicMetrics(client, server)
		}
		sample = func(rec *trace.SeriesRecorder) {
			if conns := lis.Conns(); len(conns) > 0 {
				conns[0].SampleInto(rec)
			}
		}
	case ProtoTCP:
		cfg := tcpsim.DefaultConfig()
		cfg.Tracer = tracer
		lis := tcpsim.ListenTCP(tp.Net, cfg, tp.ServerAddrs[0])
		tcpsim.ServeGet(lis, size)
		client := tcpsim.DialTCP(tp.Net, cfg, tp.ClientAddrs[0], tp.ServerAddrs[0])
		tcpsim.GetOverTCP(client, size, now, func(r tcpsim.GetResult) {
			el := r.Elapsed()
			done = &el
			clock.Stop()
		})
		received = client.BytesReceived
		collect = func() RunMetrics {
			var server *tcpsim.Conn
			if conns := lis.Conns(); len(conns) > 0 {
				server = conns[0]
			}
			return tcpMetrics(client, server)
		}
		sample = func(rec *trace.SeriesRecorder) {
			if conns := lis.Conns(); len(conns) > 0 {
				conns[0].SampleInto(rec)
			}
		}
	case ProtoMPTCP:
		cfg := mptcpsim.DefaultConfig()
		cfg.Tracer = tracer
		lis := mptcpsim.ListenMPTCP(tp.Net, cfg, tp.ServerAddrs[:])
		mptcpsim.ServeGet(lis, size)
		client := mptcpsim.DialMPTCP(tp.Net, cfg, uint32(seed)|1, tp.ClientAddrs[:], tp.ServerAddrs[:])
		mptcpsim.GetOverMPTCP(client, size, now, func(r mptcpsim.GetResult) {
			el := r.Elapsed()
			done = &el
			clock.Stop()
		})
		received = client.BytesReceived
		collect = func() RunMetrics {
			var server *mptcpsim.Conn
			if conns := lis.Conns(); len(conns) > 0 {
				server = conns[0]
			}
			return mptcpMetrics(client, server)
		}
		sample = func(rec *trace.SeriesRecorder) {
			if conns := lis.Conns(); len(conns) > 0 {
				conns[0].SampleInto(rec)
			}
		}
	}

	// The sampler is a recurring sim-clock timer polling the accepted
	// server connection (the data sender in the GET grids). It only
	// reads state, so the protocol schedule is untouched.
	var series *trace.SeriesRecorder
	if opts.SampleInterval > 0 {
		series = trace.NewSeriesRecorder()
		var st *sim.Timer
		st = sim.NewTimer(clock, func() {
			sample(series)
			st.ResetAfter(opts.SampleInterval)
		})
		st.ResetAfter(opts.SampleInterval)
	}

	err := clock.RunUntil(sim.Time(deadline))
	res := RunResult{}
	res.Metrics = collect()
	if series != nil {
		res.Metrics.Series = series.Samples
	}
	if done != nil && err == nil {
		res.Completed = true
		res.Elapsed = *done
		res.BytesRecvd = size
		res.GoodputBps = float64(size) * 8 / res.Elapsed.Seconds()
	} else {
		// Incomplete (or aborted) run: charge the deadline, credit what
		// arrived. A goodput of ~0 maps to the paper's EBen = −1 "failed
		// to transfer" notion.
		res.Elapsed = deadline
		res.BytesRecvd = received()
		res.GoodputBps = float64(res.BytesRecvd) * 8 / deadline.Seconds()
	}
	// Post-mortem: classify the run and hand the ring to the dumper.
	// Healthy runs drop the recorder without any I/O.
	if fr != nil && opts.FlightDump != nil {
		anomaly := ""
		switch {
		case err != nil:
			anomaly = "sim_error"
		case done == nil:
			anomaly = "timeout"
		case opts.RTOStorm > 0 && res.Metrics.RTOs >= opts.RTOStorm:
			anomaly = "rto_storm"
		}
		if anomaly != "" {
			opts.FlightDump(opts.rep, anomaly, fr)
		}
	}
	return res
}

// RunMPQUICVariant runs one MPQUIC download with a custom engine
// configuration — the hook the ablation benchmarks use to toggle the
// §3 design choices (scheduler kind, duplication, congestion-control
// coupling, WINDOW_UPDATE broadcast).
func RunMPQUICVariant(sc Scenario, cfg core.Config, size uint64, startPath int, seed uint64) RunResult {
	clock := sim.NewClock()
	clock.Limit = 400_000_000
	specs := orderedSpecs(sc, startPath)
	rng := sim.NewRand(seed)
	tp := netem.NewTwoPath(clock, rng, specs)
	applyDynamics(clock, rng, tp, sc, startPath)
	deadline := deadlineFor(sc, ProtoMPQUIC, size, startPath)
	cfg.HandshakeSeed = seed
	nPaths := 2
	if !cfg.Multipath {
		nPaths = 1
	}
	lis := core.Listen(tp.Net, cfg, tp.ServerAddrs[:nPaths])
	apps.NewGetServer(lis)
	client := core.Dial(tp.Net, cfg, core.NewConnID(seed), tp.ClientAddrs[:nPaths], tp.ServerAddrs[:nPaths])
	var done *time.Duration
	now := func() time.Duration { return clock.Now().Duration() }
	get := apps.NewGetClient(client, size, now, func(r apps.GetResult) {
		el := r.Elapsed()
		done = &el
		clock.Stop()
	})
	err := clock.RunUntil(sim.Time(deadline))
	res := RunResult{}
	var server *core.Conn
	if conns := lis.Conns(); len(conns) > 0 {
		server = conns[0]
	}
	res.Metrics = quicMetrics(client, server)
	if done != nil && err == nil {
		res.Completed = true
		res.Elapsed = *done
		res.BytesRecvd = size
		res.GoodputBps = float64(size) * 8 / res.Elapsed.Seconds()
		return res
	}
	res.Elapsed = deadline
	if s := get.Stream(); s != nil {
		res.BytesRecvd = s.BytesReceived()
	}
	res.GoodputBps = float64(res.BytesRecvd) * 8 / deadline.Seconds()
	return res
}

// RunMedian runs reps seeded repetitions and returns the median-elapsed
// run (the paper analyzes the median of 3). Repetition i runs with
// seed baseSeed + i·7919: a prime stride larger than any combination
// of the per-coordinate strides in runSeed can bridge (see the seed
// derivation note in experiment.go), so repetitions never reuse
// another grid point's PRNG stream, and the same (point, rep) always
// replays the same seed regardless of the configured rep count.
func RunMedian(sc Scenario, proto Protocol, size uint64, startPath int, reps int, baseSeed uint64) RunResult {
	return RunMedianOpts(sc, proto, size, startPath, reps, baseSeed, RunOpts{})
}

// RunMedianOpts is RunMedian with observability instruments attached
// to every repetition (see RunOpts). FlightDump callbacks receive the
// actual repetition index; the returned (median) run carries its own
// repetition's Series.
func RunMedianOpts(sc Scenario, proto Protocol, size uint64, startPath int, reps int, baseSeed uint64, opts RunOpts) RunResult {
	if reps <= 0 {
		reps = 1
	}
	results := make([]RunResult, reps)
	for i := 0; i < reps; i++ {
		o := opts
		o.rep = i
		results[i] = RunWithOpts(sc, proto, size, startPath, baseSeed+uint64(i)*7919, o)
	}
	// Median by elapsed time.
	best := results[0]
	if reps > 1 {
		sorted := append([]RunResult(nil), results...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j].Elapsed < sorted[j-1].Elapsed; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		best = sorted[len(sorted)/2]
	}
	return best
}
