package core_test

import (
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/sim"
)

// harness bundles one client/server pair over the Fig. 2 topology.
type harness struct {
	clock    *sim.Clock
	tp       *netem.TwoPathNet
	listener *core.Listener
	client   *core.Conn
}

func symSpecs(mbps float64, rtt time.Duration) [2]netem.PathSpec {
	return [2]netem.PathSpec{
		{CapacityMbps: mbps, RTT: rtt, QueueDelay: 100 * time.Millisecond},
		{CapacityMbps: mbps, RTT: rtt, QueueDelay: 100 * time.Millisecond},
	}
}

func newHarness(t *testing.T, clientCfg, serverCfg core.Config, specs [2]netem.PathSpec) *harness {
	t.Helper()
	clock := sim.NewClock()
	clock.Limit = 50_000_000
	tp := netem.NewTwoPath(clock, sim.NewRand(42), specs)
	h := &harness{clock: clock, tp: tp}
	h.listener = core.Listen(tp.Net, serverCfg, tp.ServerAddrs[:])
	locals := tp.ClientAddrs[:]
	remotes := tp.ServerAddrs[:]
	if !clientCfg.Multipath {
		locals, remotes = locals[:1], remotes[:1]
	}
	h.client = core.Dial(tp.Net, clientCfg, 0xabcd, locals, remotes)
	return h
}

func (h *harness) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := h.clock.RunUntil(sim.Time(until)); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func (h *harness) serverConn(t *testing.T) *core.Conn {
	t.Helper()
	conns := h.listener.Conns()
	if len(conns) != 1 {
		t.Fatalf("server has %d conns", len(conns))
	}
	return conns[0]
}

func TestHandshakeCompletesInOneRTT(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 40*time.Millisecond))
	var done time.Duration
	h.client.OnHandshakeComplete(func() { done = h.clock.Now().Duration() })
	h.run(t, time.Second)
	if !h.client.HandshakeComplete() {
		t.Fatal("handshake did not complete")
	}
	// 1 RTT (40 ms) plus serialization of the padded CHLO/SHLO
	// (~1.1 ms each at 10 Mbps).
	if done < 40*time.Millisecond || done > 50*time.Millisecond {
		t.Fatalf("handshake took %v, want ~1 RTT (40ms)", done)
	}
	if !h.serverConn(t).HandshakeComplete() {
		t.Fatal("server handshake incomplete")
	}
}

func TestSinglePathRealDataEcho(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	apps.NewGetServer(h.listener)

	// A real-bytes request must arrive intact (tests real payload
	// transport end to end).
	var got []byte
	var cs *core.Stream
	h.client.OnHandshakeComplete(func() {
		s := h.client.OpenStream()
		cs = s
		s.OnData(func() {
			if n := s.Readable(); n > 0 {
				_, data := s.Read(n)
				got = append(got, data...)
			}
		})
		s.Write([]byte("GET 5000"))
		s.Close()
	})
	h.run(t, 5*time.Second)
	// GetServer answers with 5000 synthetic bytes; synthetic reads
	// return nil data but count. The finished stream is retired, so
	// the handle, not StreamByID, reaches it.
	if cs == nil || !cs.Finished() {
		t.Fatal("response not finished")
	}
	if cs.BytesReceived() != 5000 {
		t.Fatalf("received %d bytes", cs.BytesReceived())
	}
}

func TestSinglePathDownloadGoodput(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(20, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 2<<20, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 60*time.Second)
	if res == nil {
		t.Fatal("download did not finish")
	}
	// 2 MiB at 20 Mbps is ~0.84 s minimum; handshake + slow start
	// overhead allows up to ~3 s.
	if got := res.Elapsed(); got < 800*time.Millisecond || got > 3*time.Second {
		t.Fatalf("download took %v", got)
	}
	gp := res.GoodputBps() / 1e6
	if gp < 5 || gp > 20 {
		t.Fatalf("goodput %.1f Mbps out of range", gp)
	}
}

// TestSinglePathBaselineTransfer pins the paper's QUIC baseline (§4.1):
// DefaultSinglePathConfig over one link completes a GET on exactly one
// path at each end, running CUBIC.
func TestSinglePathBaselineTransfer(t *testing.T) {
	clock := sim.NewClock()
	nw := netem.New(clock, sim.NewRand(1))
	nw.Connect("c:1", "s:443", netem.LinkConfig{RateMbps: 10, Delay: 15 * time.Millisecond, QueueDelay: 100 * time.Millisecond})
	cfg := core.DefaultSinglePathConfig()
	lis := core.Listen(nw, cfg, []netem.Addr{"s:443"})
	apps.NewGetServer(lis)
	client := core.Dial(nw, cfg, 5, []netem.Addr{"c:1"}, []netem.Addr{"s:443"})
	var res *apps.GetResult
	apps.NewGetClient(client, 1<<20, func() time.Duration { return clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	if err := clock.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("transfer did not finish")
	}
	if len(client.Paths()) != 1 || len(lis.Conns()[0].Paths()) != 1 {
		t.Fatalf("%d client / %d server paths on a single-path connection",
			len(client.Paths()), len(lis.Conns()[0].Paths()))
	}
	if name := client.Paths()[0].CC().Name(); name != "cubic" {
		t.Fatalf("baseline must run CUBIC, got %s", name)
	}
}

func TestMultipathAggregatesBandwidth(t *testing.T) {
	size := uint64(4 << 20)
	elapsed := func(cfgC, cfgS core.Config) time.Duration {
		h := newHarness(t, cfgC, cfgS, symSpecs(10, 30*time.Millisecond))
		apps.NewGetServer(h.listener)
		var res *apps.GetResult
		apps.NewGetClient(h.client, size, func() time.Duration { return h.clock.Now().Duration() },
			func(r apps.GetResult) { res = &r })
		h.run(t, 120*time.Second)
		if res == nil {
			t.Fatal("download did not finish")
		}
		return res.Elapsed()
	}
	sp := core.DefaultSinglePathConfig()
	mp := core.DefaultConfig()
	tSingle := elapsed(sp, sp)
	tMulti := elapsed(mp, mp)
	if tMulti >= tSingle {
		t.Fatalf("multipath (%v) not faster than single path (%v)", tMulti, tSingle)
	}
	// Two identical 10 Mbps paths should approach 2x: require ≥1.5x.
	if float64(tSingle)/float64(tMulti) < 1.5 {
		t.Fatalf("aggregation ratio %.2f < 1.5 (single %v, multi %v)",
			float64(tSingle)/float64(tMulti), tSingle, tMulti)
	}
}

func TestMultipathUsesBothPaths(t *testing.T) {
	mp := core.DefaultConfig()
	h := newHarness(t, mp, mp, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 4<<20, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 120*time.Second)
	if res == nil {
		t.Fatal("download did not finish")
	}
	srv := h.serverConn(t)
	paths := srv.Paths()
	if len(paths) != 2 {
		t.Fatalf("server sees %d paths", len(paths))
	}
	for _, p := range paths {
		if p.SentBytes < uint64(1<<20) {
			t.Fatalf("path %d sent only %d bytes — no aggregation", p.ID, p.SentBytes)
		}
	}
	// Client-created second path must have an odd ID.
	if paths[1].ID%2 != 1 {
		t.Fatalf("client-created path has even ID %d", paths[1].ID)
	}
}

func TestSchedulerDuplicatesOnFreshPath(t *testing.T) {
	mp := core.DefaultConfig()
	h := newHarness(t, mp, mp, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	apps.NewGetClient(h.client, 1<<20, func() time.Duration { return h.clock.Now().Duration() }, nil)
	h.run(t, 60*time.Second)
	srv := h.serverConn(t)
	if srv.Stats.DuplicatedPackets == 0 {
		t.Fatal("server never duplicated onto the fresh path")
	}
	// Ablation: with duplication disabled, no duplicates.
	mp2 := core.DefaultConfig()
	mp2.DuplicateOnNewPath = false
	mp2.Scheduler = core.SchedLowestRTTNoDup
	h2 := newHarness(t, mp2, mp2, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h2.listener)
	apps.NewGetClient(h2.client, 1<<20, func() time.Duration { return h2.clock.Now().Duration() }, nil)
	h2.run(t, 60*time.Second)
	if h2.serverConn(t).Stats.DuplicatedPackets != 0 {
		t.Fatal("nodup scheduler duplicated")
	}
}

func TestTransferSurvivesRandomLoss(t *testing.T) {
	specs := symSpecs(10, 30*time.Millisecond)
	specs[0].LossRate = 0.02
	specs[1].LossRate = 0.02
	for name, cfg := range map[string]core.Config{
		"singlepath": core.DefaultSinglePathConfig(),
		"multipath":  core.DefaultConfig(),
	} {
		h := newHarness(t, cfg, cfg, specs)
		apps.NewGetServer(h.listener)
		var res *apps.GetResult
		apps.NewGetClient(h.client, 2<<20, func() time.Duration { return h.clock.Now().Duration() },
			func(r apps.GetResult) { res = &r })
		h.run(t, 300*time.Second)
		if res == nil {
			t.Fatalf("%s: download did not finish under 2%% loss", name)
		}
	}
}

func TestWireSerializationWithCryptoMatchesStructMode(t *testing.T) {
	run := func(wireMode, cryptoMode bool) time.Duration {
		cfg := core.DefaultConfig()
		cfg.WireSerialization = wireMode
		cfg.EnableCrypto = cryptoMode
		h := newHarness(t, cfg, cfg, symSpecs(10, 30*time.Millisecond))
		apps.NewGetServer(h.listener)
		var res *apps.GetResult
		apps.NewGetClient(h.client, 1<<20, func() time.Duration { return h.clock.Now().Duration() },
			func(r apps.GetResult) { res = &r })
		h.run(t, 60*time.Second)
		if res == nil {
			t.Fatal("download did not finish")
		}
		return res.Elapsed()
	}
	structMode := run(false, false)
	wireClear := run(true, false)
	wireSealed := run(true, true)
	if structMode != wireClear || structMode != wireSealed {
		t.Fatalf("modes disagree: struct=%v wire=%v wire+aead=%v", structMode, wireClear, wireSealed)
	}
}

func TestHandoverPotentiallyFailedAndPathsFrame(t *testing.T) {
	mp := core.DefaultConfig()
	specs := [2]netem.PathSpec{
		{CapacityMbps: 10, RTT: 15 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
		{CapacityMbps: 10, RTT: 25 * time.Millisecond, QueueDelay: 50 * time.Millisecond},
	}
	h := newHarness(t, mp, mp, specs)
	apps.NewEchoServer(h.listener)
	client := apps.NewReqRespClient(h.client, h.clock, 10*time.Second)

	// Kill path 0 at t=3s (§4.3).
	h.clock.At(sim.Time(3*time.Second), func() { h.tp.KillPath(0) })
	h.run(t, 12*time.Second)

	samples := client.Samples()
	if len(samples) < 15 {
		t.Fatalf("only %d samples — traffic did not survive handover", len(samples))
	}
	// The client must have marked path 0 potentially failed.
	p0 := h.client.PathByID(0)
	if p0 == nil || !p0.PotentiallyFailed() {
		t.Fatal("path 0 not marked potentially failed")
	}
	// Exchanges after the failure recover and continue on path 1.
	var after []apps.ReqRespSample
	for _, s := range samples {
		if s.SentAt > 4*time.Second {
			after = append(after, s)
		}
	}
	if len(after) < 10 {
		t.Fatalf("only %d post-failure samples", len(after))
	}
	for _, s := range after[2:] {
		if s.Delay > 200*time.Millisecond {
			t.Fatalf("post-handover delay %v too high at t=%v", s.Delay, s.SentAt)
		}
	}
}

func TestIdleTimeoutCloses(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	cfg.IdleTimeout = 2 * time.Second
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	var closedErr error
	closed := false
	h.client.OnClosed(func(err error) { closed = true; closedErr = err })
	h.run(t, 10*time.Second)
	if !closed || closedErr == nil {
		t.Fatalf("idle timeout did not close: closed=%v err=%v", closed, closedErr)
	}
}

func TestExplicitCloseNotifiesPeer(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	h.run(t, time.Second) // complete handshake
	srv := h.serverConn(t)
	srvClosed := false
	srv.OnClosed(func(error) { srvClosed = true })
	h.client.Close()
	h.run(t, 2*time.Second)
	if !h.client.Closed() {
		t.Fatal("client not closed")
	}
	if !srvClosed {
		t.Fatal("server not notified of close")
	}
}

func TestAddAddressOpensSecondPath(t *testing.T) {
	// Client starts knowing only the first server address; the server
	// advertises the second via ADD_ADDRESS (§3 dual-stack use case).
	clock := sim.NewClock()
	tp := netem.NewTwoPath(clock, sim.NewRand(7), symSpecs(10, 30*time.Millisecond))
	srvCfg := core.DefaultConfig()
	srvCfg.AdvertiseAddresses = true
	l := core.Listen(tp.Net, srvCfg, tp.ServerAddrs[:])
	apps.NewGetServer(l)
	cliCfg := core.DefaultConfig()
	client := core.Dial(tp.Net, cliCfg, 0x11, tp.ClientAddrs[:], tp.ServerAddrs[:1])
	var res *apps.GetResult
	apps.NewGetClient(client, 2<<20, func() time.Duration { return clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	if err := clock.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("download did not finish")
	}
	if len(client.Paths()) != 2 {
		t.Fatalf("client has %d paths, want 2 (via ADD_ADDRESS)", len(client.Paths()))
	}
	p1 := client.Paths()[1]
	if p1.RecvBytes == 0 {
		t.Fatal("advertised path carried no data")
	}
}

func TestSinglePathHasNoPathIDOverhead(t *testing.T) {
	// The multipath header costs exactly one extra byte; single-path
	// mode must not pay it. Compare handshake packet accounting.
	spCfg := core.DefaultSinglePathConfig()
	h := newHarness(t, spCfg, spCfg, symSpecs(10, 20*time.Millisecond))
	h.run(t, time.Second)
	if got := len(h.client.Paths()); got != 1 {
		t.Fatalf("single path conn has %d paths", got)
	}
}

func TestRoundRobinSchedulerCompletes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Scheduler = core.SchedRoundRobin
	h := newHarness(t, cfg, cfg, symSpecs(10, 30*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 2<<20, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 60*time.Second)
	if res == nil {
		t.Fatal("round-robin download did not finish")
	}
}
