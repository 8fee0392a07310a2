package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
)

const (
	bulkSize    = 100_000_000 // bytes per live-bulk GET
	bulkChunk   = 1_000_000   // live-bulk latency sample: one MB delivered
	bulkStretch = 10_000_000  // live-bulk goodput sample: ten MB delivered
	bulkWarmup  = 256 << 10   // warm-up GET in live-bulk set-up
	bulkTimeout = 60 * time.Second

	rpcMinSize = 100  // live-rpc response sizes, uniform: sub-MTU ...
	rpcMaxSize = 5000 // ... to a few packets
	rpcWarmup  = 100  // requests in live-rpc set-up
	rpcTimeout = 5 * time.Second
	// rpcMemEvery is how many requests pass between memory samples.
	rpcMemEvery = 50

	// setupReps is how often an untraced run repeats its set-up;
	// setup_s is the median. A traced half sets up once.
	setupReps = 31
	// spanCap bounds the spans kept per recorder (24 bytes each).
	spanCap = 1 << 18
)

// Each endpoint binds one socket per path, on port 0 of the loopback
// interface.
var loopbackPaths = []string{"127.0.0.1:0", "127.0.0.1:0"}

// liveConfig is the two-path MPQUIC configuration both roles share,
// with wire serialization (real sockets) and AEAD on.
func liveConfig(seed uint64, p *probe) core.Config {
	cfg := core.DefaultConfig()
	cfg.WireSerialization = true
	cfg.EnableCrypto = true
	cfg.IdleTimeout = 30 * time.Second
	cfg.HandshakeSeed = seed
	cfg.Tracer = p.tracer()
	return cfg
}

// server is a live GET server running its loop on its own goroutine.
type server struct {
	d       *live.Driver
	lis     *core.Listener
	remotes []netem.Addr
	done    chan error
	quit    atomic.Bool
}

func startServer(seed uint64, p *probe) (*server, error) {
	d, err := live.NewDriver(loopbackPaths, p.driverOptions()...)
	if err != nil {
		return nil, err
	}
	lis := core.Listen(p.sender(d), liveConfig(seed, p), d.LocalAddrs())
	apps.NewGetServer(lis)
	s := &server{d: d, lis: lis, remotes: d.LocalAddrs(), done: make(chan error, 1)}
	go func() { s.done <- d.Run(s.quit.Load) }()
	return s, nil
}

// stop ends the server loop, waits for it to return and closes the
// sockets. Only after stop may this goroutine read the server's
// connection state, which the loop owns while it runs. The loop returns
// before the sockets close, so its exit refreshes Stats.RcvQueueDrops
// from sockets that still exist.
func (s *server) stop() error {
	s.quit.Store(true)
	s.d.Wake()
	err := <-s.done
	s.d.Close()
	if err != nil {
		return fmt.Errorf("server loop: %w", err)
	}
	return nil
}

// getOp is one GET on a fresh stream. It counts the response bytes it
// consumes at the stream level, so the output check compares what
// actually arrived against what was requested.
type getOp struct {
	want, got uint64
	done      bool
}

func startGet(conn *core.Conn, size uint64, onBytes func(got uint64), onDone func(*getOp)) *getOp {
	g := &getOp{want: size}
	s := conn.OpenStream()
	s.OnData(func() {
		if n := s.Readable(); n > 0 {
			got, _ := s.Read(n)
			g.got += got
			if onBytes != nil {
				onBytes(g.got)
			}
		}
		if s.Finished() && !g.done {
			g.done = true
			if onDone != nil {
				onDone(g)
			}
		}
	})
	s.Write([]byte(apps.FormatGet(size)))
	s.Close()
	return g
}

// driverTotals sums the live drivers' counters of one phase.
type driverTotals struct {
	in, out, batches, maxBatch, drops, writeErrs, discards uint64
}

func (t *driverTotals) add(s live.Stats) {
	t.in += s.PacketsIn
	t.out += s.PacketsOut
	t.batches += s.IngressBatches
	t.maxBatch = max(t.maxBatch, s.MaxBatch)
	t.drops += s.RcvQueueDrops
	t.writeErrs += s.WriteErrors + s.NoRoute
	t.discards += s.EgressDiscards
}

func (t driverTotals) metrics(m map[string]float64) {
	m["live.batch_mean"] = ratio(float64(t.in), float64(t.batches))
	m["live.max_batch"] = float64(t.maxBatch)
	m["live.rcvq_drops_per_kpkt"] = 1000 * ratio(float64(t.drops), float64(t.out))
	m["live.write_errs"] = float64(t.writeErrs)
	m["live.egress_discards"] = float64(t.discards)
}

// liveRun is what one timed phase of a live workload measured.
type liveRun struct {
	setup     []time.Duration
	attempted int
	failed    int
	ops       int       // completed with the right byte count
	payload   uint64    // bytes delivered by completed ops
	goodput   []float64 // Mbps, goodput samples of completed ops
	latencies []float64 // ms, fine-grained samples
	mem       *memSampler
	handshake []float64 // us, traced phase only
	wall      time.Duration
	proc      procDelta
	drivers   driverTotals
	ackOnly   [2]uint64 // non-retransmittable, all datagrams sent (both endpoints)
	cli, srv  *probe    // endpoint probes (traced phase)
	sender    senderTotals
}

// senderTotals aggregates the data sender's (the servers') connection
// state: recovery counters and each path's final cwnd and srtt.
type senderTotals struct {
	sent, lost, retx, sentBytes uint64
	cwnd, srtt                  []float64
}

// retire stops a server and folds its driver counters and connection
// state into the phase totals. Connection state is read only here,
// after the server loop returned.
func (r *liveRun) retire(srv *server) error {
	if err := srv.stop(); err != nil {
		return err
	}
	r.drivers.add(srv.d.Stats)
	t := &r.sender
	for _, c := range srv.lis.Conns() {
		r.countSent(c)
		t.sent += c.Stats.PacketsSent
		t.lost += c.Stats.PacketsLost
		t.retx += c.Stats.Retransmissions
		for _, p := range c.Paths() {
			t.sentBytes += p.SentBytes
			t.cwnd = append(t.cwnd, float64(p.CC().Cwnd())/1024)
			t.srtt = append(t.srtt, float64(p.RTT().SmoothedRTT())/1e3)
		}
	}
	return nil
}

// endToEnd fills the end-to-end metrics of an untraced phase.
func (r *liveRun) endToEnd(m map[string]float64) {
	m["goodput_mbps"] = quantile(r.goodput, 0.5)
	m["latency_ms_p50"] = quantile(r.latencies, 0.5)
	m["cpu_ms_per_op"] = ratio(float64(r.proc.cpu)/1e6, float64(r.ops))
	m["mem_mb"] = quantile(r.mem.mb, 0.5)
}

// countSent adds a connection's datagrams sent, and those that carry
// no retransmittable frame (ACK-only), to the ack-only tally. AEAD hides
// frames from the Send wrapper, so the split comes from the path and
// recovery-space counters: every retransmittable packet is tracked by
// its path's recovery space, nothing else is.
func (r *liveRun) countSent(c *core.Conn) {
	for _, p := range c.Paths() {
		r.ackOnly[1] += p.SentPackets
		r.ackOnly[0] += p.SentPackets - p.Space().Stats.PacketsSent
	}
}

// layers fills the per-layer metrics of a traced phase: wrapper and
// span totals, tracer counts and the data sender's connection state.
func (r *liveRun) layers(m map[string]float64) {
	cli, srv := r.cli, r.srv
	writes, writeNs := totals(spanSockWrite, cli.rec, srv.rec)
	m["live.sock.write_ns_per_pkt"] = ratio(float64(writeNs), float64(writes))
	reads := cli.reads.Load() + srv.reads.Load()
	m["live.sock.syscalls_per_pkt"] = ratio(float64(reads+writes), float64(r.drivers.in+r.drivers.out))
	n, ns := totals(spanCoreRxCli, cli.rec)
	m["core.rx_ns_per_pkt.client"] = ratio(float64(ns), float64(n))
	n, ns = totals(spanCoreRxSrv, srv.rec)
	m["core.rx_ns_per_pkt.server"] = ratio(float64(ns), float64(n))
	m["core.ack_only_frac"] = ratio(float64(r.ackOnly[0]), float64(r.ackOnly[1]))
	egress := cli.egressBytes + srv.egressBytes
	m["core.wire_overhead_frac"] = ratio(float64(egress)-float64(r.payload), float64(r.payload))
	m["core.pf_events"] = float64(cli.events.pf + srv.events.pf)
	m["core.rtos"] = float64(cli.events.rtos + srv.events.rtos)
	m["core.handshake_us_p50"] = quantile(r.handshake, 0.5)

	t := r.sender
	m["recovery.lost_per_kpkt"] = 1000 * ratio(float64(t.lost), float64(t.sent))
	m["recovery.retx_per_kpkt"] = 1000 * ratio(float64(t.retx), float64(t.sent))
	m["core.useful_frac"] = ratio(float64(r.payload), float64(t.sentBytes))
	m["cc.cwnd_kb.server"] = quantile(t.cwnd, 0.5)
	m["rtt.srtt_us.server"] = quantile(t.srtt, 0.5)
}

// runLive runs one live workload: untraced, or (traced) an untraced
// half and a traced half whose difference is the tracing overhead.
func runLive(e *env, phase func(e *env, budget time.Duration, traced bool, out *outcome) (*liveRun, error)) (*outcome, error) {
	out := &outcome{metrics: make(map[string]float64)}
	if !e.traced {
		r, err := phase(e, e.duration, false, out)
		if err != nil {
			return nil, err
		}
		out.attempted, out.failed = r.attempted, r.failed
		r.endToEnd(out.metrics)
		out.metrics["setup_s"] = medianMs(r.setup) / 1e3
		return out, nil
	}
	plain, err := phase(e, e.duration/2, false, out)
	if err != nil {
		return nil, err
	}
	traced, err := phase(e, e.duration/2, true, out)
	if err != nil {
		return nil, err
	}
	out.attempted = plain.attempted + traced.attempted
	out.failed = plain.failed + traced.failed
	m := out.metrics
	plain.drivers.metrics(m)
	plain.proc.procMetrics(m, plain.drivers.out, e.nproc)
	m["ops_per_s"] = ratio(float64(plain.ops), plain.wall.Seconds())
	m["latency_ms_p90"] = quantile(plain.latencies, 0.9)
	m["latency_ms_p99"] = quantile(plain.latencies, 0.99)
	m["proc.max_rss_mb"] = maxRSSMB()
	traced.layers(m)
	pm, tm := map[string]float64{}, map[string]float64{}
	plain.endToEnd(pm)
	traced.endToEnd(tm)
	m["trace.overhead.latency_ms_p50"] = tm["latency_ms_p50"] - pm["latency_ms_p50"]
	m["trace.overhead.cpu_ms_per_op"] = tm["cpu_ms_per_op"] - pm["cpu_ms_per_op"]
	spans := spanReport(m, traced.cli.rec, traced.srv.rec)
	if err := writeSpans(e, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return out, nil
}

func runLiveBulk(e *env) (*outcome, error) { return runLive(e, bulkPhase) }
func runLiveRPC(e *env) (*outcome, error)  { return runLive(e, rpcPhase) }

// bulkPhase: set up (server + a warm-up GET) setupReps times, keep the
// last server, then run sequential 100 MB GETs, each on a fresh client
// driver and connection, until the budget is spent.
func bulkPhase(e *env, budget time.Duration, traced bool, out *outcome) (*liveRun, error) {
	r := &liveRun{mem: newMemSampler()}
	ops := &opClock{}
	if traced {
		r.cli = newProbe(e.sw, ops, spanCoreRxCli)
		r.srv = newProbe(e.sw, ops, spanCoreRxSrv)
	}
	var srv *server
	reps := setupRepsFor(traced)
	for i := 0; i < reps; i++ {
		t0 := e.sw.Elapsed()
		var err error
		if srv, err = startServer(e.seed, r.srv); err != nil {
			return nil, err
		}
		res := bulkGet(e, srv, nil, 0, uint64(i), bulkWarmup, nil)
		if res.err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up GET: %w", res.err)
		}
		r.setup = append(r.setup, e.sw.Elapsed()-t0)
		if i < reps-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}

	before := sampleProc(e.sw)
	for op := uint32(1); e.sw.Elapsed()-before.wall < budget; op++ {
		samples := &bulkSamples{mem: r.mem}
		res := bulkGet(e, srv, r.cli, op, uint64(reps)+uint64(op), bulkSize, samples)
		r.attempted++
		r.drivers.add(res.stats)
		if res.conn != nil {
			r.countSent(res.conn)
		}
		switch {
		case res.err != nil:
			r.failed++
			fmt.Printf("failed GET %d: %v\n", op, res.err)
		case res.got != bulkSize:
			r.failed++
			out.problem("GET %d delivered %d bytes, want %d", op, res.got, bulkSize)
		default:
			r.ops++
			r.payload += res.got
			r.latencies = append(r.latencies, samples.lat...)
			r.goodput = append(r.goodput, samples.goodput...)
			if traced {
				r.handshake = append(r.handshake, float64(res.handshake)/1e3)
			}
		}
	}
	r.proc = before.to(sampleProc(e.sw))
	r.wall = r.proc.wall
	if err := r.retire(srv); err != nil {
		return nil, err
	}
	return r, nil
}

// bulkResult is one live-bulk GET as the client saw it.
type bulkResult struct {
	err       error
	got       uint64
	elapsed   time.Duration // core.Dial to last byte
	handshake time.Duration // core.Dial to handshake_done (traced)
	stats     live.Stats
	conn      *core.Conn
}

// bulkSamples collects one GET's progress samples, both timed from
// core.Dial so the first of each includes the handshake: the wall time
// of each successive MB (latency samples) and the goodput of each
// successive ten MB (goodput samples). A whole 100 MB GET is too coarse
// a goodput sample: a run holds about twenty, and whether one hit a
// loss episode swings their median. Memory is sampled at each MB.
type bulkSamples struct {
	lat, goodput []float64
	mem          *memSampler
	mb, stretch  time.Duration // stopwatch time the current MB / ten MB began
	next         uint64        // byte count at which the current MB ends
}

func (b *bulkSamples) start(t0 time.Duration) {
	b.mb, b.stretch, b.next = t0, t0, bulkChunk
}

func (b *bulkSamples) progress(got uint64, now time.Duration) {
	for got >= b.next {
		b.lat = append(b.lat, float64(now-b.mb)/1e6)
		b.mb = now
		if b.next%bulkStretch == 0 {
			b.goodput = append(b.goodput, bulkStretch*8/1e6/(now-b.stretch).Seconds())
			b.stretch = now
		}
		b.next += bulkChunk
		b.mem.sample()
	}
}

// bulkGet downloads size bytes over a fresh client driver and
// connection, feeding progress samples to samples when non-nil.
func bulkGet(e *env, srv *server, p *probe, op uint32, connSeed, size uint64, samples *bulkSamples) bulkResult {
	d, err := live.NewDriver(loopbackPaths, p.driverOptions()...)
	if err != nil {
		return bulkResult{err: err}
	}
	defer d.Close()
	if p != nil {
		p.ops.cur.Store(op)
	}
	var g *getOp
	t0 := e.sw.Elapsed()
	var onBytes func(uint64)
	if samples != nil {
		samples.start(t0)
		onBytes = func(got uint64) { samples.progress(got, e.sw.Elapsed()) }
	}
	conn := core.Dial(p.sender(d), liveConfig(e.seed, p), core.NewConnID(e.seed<<20+connSeed), d.LocalAddrs(), srv.remotes)
	conn.OnHandshakeComplete(func() { g = startGet(conn, size, onBytes, nil) })
	timedOut := false
	deadline := sim.NewTimer(d.Clock(), func() { timedOut = true })
	deadline.ResetAfter(bulkTimeout)
	err = d.Run(func() bool { return (g != nil && g.done) || timedOut || conn.Closed() })
	t1 := e.sw.Elapsed()
	deadline.Stop()
	res := bulkResult{elapsed: t1 - t0, conn: conn}
	if p != nil {
		p.rec.add(spanOp, op, int64(t0), int64(t1))
		res.handshake = p.events.handshakeAt - t0
	}
	switch {
	case err != nil:
		res.err = err
	case timedOut:
		res.err = fmt.Errorf("no response within %v", bulkTimeout)
	case g == nil || !g.done:
		res.err = fmt.Errorf("connection closed: %v", conn.Err())
	default:
		res.got = g.got
	}
	conn.Close()
	d.Flush() // deliver the CONNECTION_CLOSE before the sockets close
	res.stats = d.Stats
	return res
}

// rpcConnRequests bounds the requests one live-rpc connection carries.
// core never reclaims finished streams and every send pass walks all
// the streams a connection has opened, so per-packet cost grows with
// the connection's request count; a fixed bound keeps the latency
// distribution independent of how many requests fit in a run.
const rpcConnRequests = 200

// rpcServerConns bounds the connections one live-rpc server accepts
// before a fresh server replaces it: the listener keeps every
// connection it ever accepted, with all their streams, so without a
// bound the process grows by about 17 KB per request.
const rpcServerConns = 10

// rpcPhase: set up (server, client, handshake and warm-up requests)
// setupReps times, keep the last server, then run a closed loop of one
// outstanding GET at a time on fresh streams, rpcConnRequests per
// connection, until the budget is spent.
func rpcPhase(e *env, budget time.Duration, traced bool, out *outcome) (*liveRun, error) {
	r := &liveRun{mem: newMemSampler()}
	ops := &opClock{}
	if traced {
		r.cli = newProbe(e.sw, ops, spanCoreRxCli)
		r.srv = newProbe(e.sw, ops, spanCoreRxSrv)
	}
	var srv *server
	conns := uint64(0)
	warm := sim.NewRand(e.seed ^ 0x5eed)
	reps := setupRepsFor(traced)
	for i := 0; i < reps; i++ {
		t0 := e.sw.Elapsed()
		var err error
		if srv, err = startServer(e.seed, r.srv); err != nil {
			return nil, err
		}
		conns++
		if err := rpcConn(e, srv, r.cli, ops, conns, rpcWarmup, 0, warm, nil, out); err != nil {
			srv.stop()
			return nil, fmt.Errorf("rpc set-up: %w", err)
		}
		r.setup = append(r.setup, e.sw.Elapsed()-t0)
		if i < reps-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}

	rng := sim.NewRand(e.seed)
	before := sampleProc(e.sw)
	onServer := 1 // the warm-up connection
	for end := before.wall + budget; e.sw.Elapsed() < end; {
		if onServer == rpcServerConns {
			if err := r.retire(srv); err != nil {
				return nil, err
			}
			var err error
			if srv, err = startServer(e.seed, r.srv); err != nil {
				return nil, err
			}
			onServer = 0
		}
		conns++
		onServer++
		if err := rpcConn(e, srv, r.cli, ops, conns, rpcConnRequests, end, rng, r, out); err != nil {
			srv.stop()
			return nil, err
		}
	}
	r.proc = before.to(sampleProc(e.sw))
	r.wall = r.proc.wall
	if err := r.retire(srv); err != nil {
		return nil, err
	}
	return r, nil
}

// rpcLoop is the state of one live-rpc connection's request loop,
// touched only inside its client driver's event loop.
type rpcLoop struct {
	e         *env
	conn      *core.Conn
	p         *probe
	ops       *opClock
	rng       *sim.Rand
	r         *liveRun // where samples go; nil during warm-up
	out       *outcome
	remaining int           // requests still to issue
	until     time.Duration // stop issuing once the stopwatch passes it (0: never)
	deadline  *sim.Timer
	t0        time.Duration
	finished  bool
	timedOut  bool
}

// rpcConn dials a fresh client driver and connection and runs a closed
// loop of up to n requests (fewer if the stopwatch passes until)
// inside the client's event loop: each response's completion issues
// the next request, as a request/response application on this stack
// would. A request that times out or dies with its connection is a
// failed operation; during warm-up (r nil) it is an error.
func rpcConn(e *env, srv *server, p *probe, ops *opClock, connSeed uint64, n int, until time.Duration,
	rng *sim.Rand, r *liveRun, out *outcome) error {
	d, err := live.NewDriver(loopbackPaths, p.driverOptions()...)
	if err != nil {
		return err
	}
	defer d.Close()
	l := &rpcLoop{e: e, p: p, ops: ops, rng: rng, r: r, out: out, remaining: n, until: until}
	dialAt := e.sw.Elapsed()
	l.conn = core.Dial(p.sender(d), liveConfig(e.seed, p), core.NewConnID(e.seed<<20+connSeed), d.LocalAddrs(), srv.remotes)
	l.deadline = sim.NewTimer(d.Clock(), func() { l.timedOut = true })
	l.deadline.ResetAfter(rpcTimeout) // the handshake, then each request
	l.conn.OnHandshakeComplete(l.issue)
	err = d.Run(func() bool { return l.finished || l.timedOut || l.conn.Closed() })
	l.deadline.Stop()
	if r != nil {
		r.drivers.add(d.Stats)
		r.countSent(l.conn)
		if p != nil {
			r.handshake = append(r.handshake, float64(p.events.handshakeAt-dialAt)/1e3)
		}
	}
	var fail error
	switch {
	case err != nil:
		return err
	case l.timedOut:
		fail = fmt.Errorf("request %d: no response within %v", ops.cur.Load(), rpcTimeout)
	case !l.finished:
		fail = fmt.Errorf("connection closed: %v", l.conn.Err())
	}
	l.conn.Close()
	d.Flush() // deliver the CONNECTION_CLOSE before the sockets close
	if fail != nil {
		if r == nil {
			return fail
		}
		r.failed++
		fmt.Printf("failed request: %v\n", fail)
	}
	return nil
}

func (l *rpcLoop) issue() {
	size := uint64(rpcMinSize + l.rng.Intn(rpcMaxSize-rpcMinSize+1))
	l.ops.cur.Add(1)
	l.remaining--
	if l.r != nil {
		l.r.attempted++
	}
	l.t0 = l.e.sw.Elapsed()
	l.deadline.ResetAfter(rpcTimeout)
	startGet(l.conn, size, nil, l.complete)
}

// complete records a finished response and issues the next request.
func (l *rpcLoop) complete(g *getOp) {
	t1 := l.e.sw.Elapsed()
	l.deadline.Stop()
	op := l.ops.cur.Load()
	if l.p != nil {
		l.p.rec.add(spanOp, op, int64(l.t0), int64(t1))
	}
	switch {
	case g.got != g.want:
		l.out.problem("request %d delivered %d bytes, want %d", op, g.got, g.want)
		if l.r != nil {
			l.r.failed++
		}
	case l.r != nil:
		lat := t1 - l.t0
		l.r.ops++
		l.r.payload += g.got
		l.r.goodput = append(l.r.goodput, float64(g.got)*8/1e6/lat.Seconds())
		l.r.latencies = append(l.r.latencies, float64(lat)/1e6)
		if l.r.ops%rpcMemEvery == 0 {
			l.r.mem.sample()
		}
	}
	if l.remaining == 0 || (l.until > 0 && t1 >= l.until) {
		l.finished = true
		return
	}
	l.issue()
}

func setupRepsFor(traced bool) int {
	if traced {
		return 1
	}
	return setupReps
}
