package main

import (
	"net/netip"
	"sync/atomic"
	"time"

	"mpquic/internal/core"
	"mpquic/internal/live"
	"mpquic/internal/netem"
	"mpquic/internal/perf"
	"mpquic/internal/trace"
)

// probe instruments one live endpoint from outside, at three seams: a
// socket wrapper (live.WithSocketWrapper) timing every write and
// counting every read, a core.DatagramSender wrapper timing every
// HandleDatagram and counting egress, and a counting protocol tracer.
// Everything but the read counter is touched only by the endpoint's
// run-loop goroutine.
type probe struct {
	rec    *recorder
	rxName spanName
	ops    *opClock
	events eventCounter

	reads       atomic.Uint64 // reader goroutines
	egressPkts  uint64
	egressBytes uint64
}

func newProbe(sw *perf.Stopwatch, ops *opClock, rxName spanName) *probe {
	return &probe{
		rec:    newRecorder(sw, spanCap),
		rxName: rxName,
		ops:    ops,
		events: eventCounter{sw: sw},
	}
}

// driverOptions returns the live driver options that install the
// socket wrapper; nil for an uninstrumented endpoint.
func (p *probe) driverOptions() []live.Option {
	if p == nil {
		return nil
	}
	return []live.Option{live.WithSocketWrapper(func(_ int, c live.UDPConn) live.UDPConn {
		return &timedConn{UDPConn: c, p: p}
	})}
}

// sender wraps d when the endpoint is instrumented.
func (p *probe) sender(d *live.Driver) core.DatagramSender {
	if p == nil {
		return d
	}
	return &timedSender{DatagramSender: d, p: p, wrapped: make(map[netem.Handler]*timedHandler)}
}

// tracer returns the counting tracer, or nil (tracing off).
func (p *probe) tracer() trace.Tracer {
	if p == nil {
		return nil
	}
	return &p.events
}

// timedConn times socket writes and counts reads.
type timedConn struct {
	live.UDPConn
	p *probe
}

func (c *timedConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	c.p.reads.Add(1)
	return c.UDPConn.ReadFromUDPAddrPort(b)
}

func (c *timedConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	t0 := c.p.rec.now()
	n, err := c.UDPConn.WriteToUDPAddrPort(b, addr)
	c.p.rec.add(spanSockWrite, c.p.ops.cur.Load(), t0, c.p.rec.now())
	return n, err
}

// timedSender wraps a DatagramSender: Register interposes a timing
// handler (one per underlying handler, so the driver's identity-based
// handler dedup still sees one handler per connection), Send counts
// egress datagrams and bytes. It lives as long as its driver, so the
// handlers it remembers are released with it.
type timedSender struct {
	core.DatagramSender
	p       *probe
	wrapped map[netem.Handler]*timedHandler
}

func (s *timedSender) Register(addr netem.Addr, h netem.Handler) {
	w := s.wrapped[h]
	if w == nil {
		w = &timedHandler{h: h, p: s.p}
		s.wrapped[h] = w
	}
	s.DatagramSender.Register(addr, w)
}

func (s *timedSender) Send(dg netem.Datagram) {
	s.p.egressPkts++
	s.p.egressBytes += uint64(len(dg.Raw))
	s.DatagramSender.Send(dg)
}

// timedHandler times each HandleDatagram. The live driver reaches the
// protocol through optional handler methods — FailPathsOn relays a
// socket failure into PF state, CorruptDrops feeds Stats — so the
// wrapper forwards both; without them tracing would silently disable
// PF failover and drop accounting.
type timedHandler struct {
	h netem.Handler
	p *probe
}

var (
	_ interface{ FailPathsOn(netem.Addr) int } = (*timedHandler)(nil)
	_ interface{ CorruptDrops() uint64 }       = (*timedHandler)(nil)
	_ interface{ FailPathsOn(netem.Addr) int } = (*core.Listener)(nil)
	_ interface{ CorruptDrops() uint64 }       = (*core.Listener)(nil)
	_ interface{ FailPathsOn(netem.Addr) int } = (*core.Conn)(nil)
	_ interface{ CorruptDrops() uint64 }       = (*core.Conn)(nil)
)

func (t *timedHandler) HandleDatagram(dg netem.Datagram) {
	t0 := t.p.rec.now()
	t.h.HandleDatagram(dg)
	t.p.rec.add(t.p.rxName, t.p.ops.cur.Load(), t0, t.p.rec.now())
}

func (t *timedHandler) FailPathsOn(local netem.Addr) int {
	if fp, ok := t.h.(interface{ FailPathsOn(netem.Addr) int }); ok {
		return fp.FailPathsOn(local)
	}
	return 0
}

func (t *timedHandler) CorruptDrops() uint64 {
	if cd, ok := t.h.(interface{ CorruptDrops() uint64 }); ok {
		return cd.CorruptDrops()
	}
	return 0
}

// eventCounter is a counting protocol tracer. It also stamps the wall
// time of the latest completed handshake.
type eventCounter struct {
	sw          *perf.Stopwatch
	rtos        uint64
	pf          uint64
	handshakeAt time.Duration
}

func (c *eventCounter) Trace(ev trace.Event) {
	switch ev.Type {
	case trace.RTOFired:
		c.rtos++
	case trace.PathFailed:
		c.pf++
	case trace.HandshakeDone:
		c.handshakeAt = c.sw.Elapsed()
	}
}
