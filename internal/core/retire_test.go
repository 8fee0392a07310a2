package core_test

import (
	"runtime"
	"testing"
	"time"

	"mpquic/internal/apps"
	"mpquic/internal/core"
	"mpquic/internal/netem"
	"mpquic/internal/recovery"
	"mpquic/internal/sim"
	"mpquic/internal/wire"
)

// runSequentialGets runs n GETs one after another on one connection,
// each on a fresh stream opened pause after the previous response
// finished, and calls after(i) once response i has been read. The
// stack runs as in live mode (multipath, every packet serialized and
// sealed), so responses arrive as real bytes. Response sizes (100 B to about 5 KB)
// repeat every 100 requests, so any two windows of 100 requests
// aligned to that period carry the same bytes.
func runSequentialGets(t *testing.T, n int, pause time.Duration, after func(i int, h *harness)) *harness {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.WireSerialization = true
	cfg.EnableCrypto = true
	h := newHarness(t, cfg, cfg, symSpecs(100, 2*time.Millisecond))
	apps.NewGetServer(h.listener)
	done := 0
	var issue func()
	issue = func() {
		s := h.client.OpenStream()
		size := uint64(100 + (done%100*37)%100*49)
		s.OnData(func() {
			if r := s.Readable(); r > 0 {
				s.Read(r)
			}
			if !s.Finished() || s.BytesReceived() != size {
				return
			}
			done++
			after(done, h)
			switch {
			case done == n:
			case pause > 0:
				h.clock.After(pause, issue)
			default:
				issue()
			}
		})
		s.Write([]byte(apps.FormatGet(size)))
		s.Close()
	}
	h.client.OnHandshakeComplete(issue)
	h.run(t, 60*time.Second+time.Duration(n)*pause) // the exchanges (12 s back to back), then idle
	if done != n {
		t.Fatalf("%d of %d requests finished", done, n)
	}
	return h
}

// TestSequentialStreamsRetire runs 5,000 requests on one connection:
// the streams either endpoint tracks stay bounded by what is in flight,
// not by the connection's history, and none outlive the exchange.
// Each request waits out the client's delayed-ACK timer, so the
// server has had the ACK of every earlier response.
func TestSequentialStreamsRetire(t *testing.T) {
	maxLive := [2]int{}
	h := runSequentialGets(t, 5000, recovery.MaxAckDelay+5*time.Millisecond, func(i int, h *harness) {
		for j, c := range []*core.Conn{h.client, h.serverConn(t)} {
			if n := c.LiveStreams(); n > maxLive[j] {
				maxLive[j] = n
			}
		}
	})
	if maxLive[0] > 2 || maxLive[1] > 2 {
		t.Fatalf("up to %d client / %d server live streams, want <= 2", maxLive[0], maxLive[1])
	}
	if c, s := h.client.LiveStreams(), h.serverConn(t).LiveStreams(); c != 0 || s != 0 {
		t.Fatalf("%d client / %d server streams live after the last response", c, s)
	}
}

// TestPerRequestAllocationStaysFlat is the per-request cost gate: a
// request late in a connection's life allocates no more than an early
// one, and finished requests leave nothing behind on the heap, so a
// connection's stream history costs nothing per request.
func TestPerRequestAllocationStaysFlat(t *testing.T) {
	var ms runtime.MemStats
	var early, late, mark, heap200 uint64
	var retained int64
	runSequentialGets(t, 5000, 0, func(i int, h *harness) {
		switch i {
		case 100, 4900:
			runtime.ReadMemStats(&ms)
			mark = ms.TotalAlloc
		case 200:
			runtime.ReadMemStats(&ms)
			early = ms.TotalAlloc - mark
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heap200 = ms.HeapAlloc
		case 5000:
			runtime.ReadMemStats(&ms)
			late = ms.TotalAlloc - mark
			runtime.GC()
			runtime.ReadMemStats(&ms)
			retained = int64(ms.HeapAlloc) - int64(heap200)
		}
	})
	t.Logf("bytes allocated per request: %d at requests 100-200, %d at 4900-5000; heap grew %d B over requests 200-5000",
		early/100, late/100, retained)
	if float64(late) > 1.1*float64(early) {
		t.Fatalf("requests 4900-5000 allocated %d B each, more than 1.1x the %d B of requests 100-200", late/100, early/100)
	}
	if retained > 4800*64 {
		t.Fatalf("the heap grew %d B over 4800 finished requests, %d B each", retained, retained/4800)
	}
}

// holdPath withholds the client datagrams sent on one path until
// release, as a slow second path delays them.
type holdPath struct {
	*netem.Network
	path wire.PathID
	held []netem.Datagram
}

func (h *holdPath) Send(dg netem.Datagram) {
	if pkt, ok := dg.Payload.(*wire.Packet); ok && pkt.Header.PathID == h.path && h.path != 0 {
		h.held = append(h.held, dg)
		return
	}
	h.Network.Send(dg)
}

func (h *holdPath) release() {
	for _, dg := range h.held {
		h.Network.Send(dg)
	}
	h.held = nil
}

// A request duplicated onto a fresh path (§3) whose copy arrives after
// the stream retired is acked, and reaches the application only once.
func TestLateDuplicateOfRetiredStreamIsAckedNotReserved(t *testing.T) {
	cfg := core.DefaultConfig()
	clock := sim.NewClock()
	tp := netem.NewTwoPath(clock, sim.NewRand(7), symSpecs(50, 20*time.Millisecond))
	lis := core.Listen(tp.Net, cfg, tp.ServerAddrs[:])
	opens, serves := 0, 0
	lis.OnConnection(func(c *core.Conn) {
		c.OnStreamOpen(func(s *core.Stream) {
			opens++
			s.OnData(func() {
				s.Read(s.Readable())
				if s.Finished() {
					serves++
					s.WriteSynthetic(500)
					s.Close()
				}
			})
		})
	})
	hold := &holdPath{Network: tp.Net, path: 1}
	client := core.Dial(hold, cfg, 0xabcd, tp.ClientAddrs[:], tp.ServerAddrs[:])
	var s *core.Stream
	client.OnHandshakeComplete(func() {
		s = client.OpenStream()
		s.OnData(func() { s.Read(s.Readable()) })
		s.WriteSynthetic(100)
		s.Close()
	})
	if err := clock.RunUntil(sim.Time(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	server := lis.Conns()[0]
	if s == nil || !s.Finished() || !s.AllAcked() {
		t.Fatal("exchange did not finish on path 0")
	}
	if server.LiveStreams() != 0 || client.LiveStreams() != 0 {
		t.Fatalf("%d server / %d client streams live, want both retired", server.LiveStreams(), client.LiveStreams())
	}
	dups := 0
	for _, dg := range hold.held {
		for _, f := range dg.Payload.(*wire.Packet).Frames {
			if sf, ok := f.(*wire.StreamFrame); ok && sf.StreamID == s.ID() && sf.Fin {
				dups++
			}
		}
	}
	if dups == 0 {
		t.Fatal("the request was not duplicated onto path 1")
	}
	hold.release()
	if err := clock.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if opens != 1 || serves != 1 {
		t.Fatalf("stream opened %d times and served %d times, want 1 and 1", opens, serves)
	}
	if server.LiveStreams() != 0 {
		t.Fatal("the late duplicate reopened the retired stream")
	}
	if client.PathByID(1).Space().HasRetransmittableInFlight() {
		t.Fatal("the late duplicate was never acked")
	}
}

// A stream whose application never reads the response stays live,
// with every byte still readable.
func TestUnreadStreamIsNotRetired(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	apps.NewGetServer(h.listener)
	h.client.OnHandshakeComplete(func() {
		s := h.client.OpenStream()
		s.Write([]byte(apps.FormatGet(5000)))
		s.Close()
	})
	h.run(t, 5*time.Second)
	s := h.client.StreamByID(core.FirstClientStream)
	if s == nil || h.client.LiveStreams() != 1 {
		t.Fatal("an unread stream was retired")
	}
	if s.Readable() != 5000 || !s.AllAcked() {
		t.Fatalf("readable %d, all acked %v", s.Readable(), s.AllAcked())
	}
	if n := h.serverConn(t).LiveStreams(); n != 0 {
		t.Fatalf("server keeps %d streams after its side finished", n)
	}
}

// A WINDOW_UPDATE naming a retired stream neither revives it nor
// disturbs the connection.
func TestWindowUpdateForRetiredStreamIgnored(t *testing.T) {
	cfg := core.DefaultSinglePathConfig()
	h := newHarness(t, cfg, cfg, symSpecs(10, 20*time.Millisecond))
	apps.NewGetServer(h.listener)
	var res *apps.GetResult
	apps.NewGetClient(h.client, 5000, func() time.Duration { return h.clock.Now().Duration() },
		func(r apps.GetResult) { res = &r })
	h.run(t, 5*time.Second)
	server := h.serverConn(t)
	if res == nil || server.LiveStreams() != 0 {
		t.Fatal("GET did not finish and retire")
	}
	sent := server.Stats.PacketsSent
	server.InjectFrame(&wire.WindowUpdateFrame{StreamID: core.FirstClientStream, Offset: 1 << 30})
	h.run(t, 10*time.Second)
	if server.LiveStreams() != 0 || server.StreamByID(core.FirstClientStream) != nil || server.Closed() {
		t.Fatal("WINDOW_UPDATE for a retired stream revived it or broke the connection")
	}
	if server.Stats.PacketsSent != sent {
		t.Fatalf("server sent %d packets in response", server.Stats.PacketsSent-sent)
	}
}
