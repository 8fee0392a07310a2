package core

import (
	"mpquic/internal/stream"
	"mpquic/internal/wire"
)

// Stream is the application-facing handle for one bidirectional QUIC
// stream. All methods must be called from simulation callbacks (the
// engine is single-threaded on the virtual clock).
type Stream struct {
	conn *Conn
	id   wire.StreamID

	send *stream.SendStream
	recv *stream.RecvStream
	fc   *stream.FlowController

	// onData fires whenever new contiguous bytes become readable or
	// the FIN arrives.
	onData func()
	// onAcked fires when every written byte (and FIN) is acked.
	onAcked func()
}

// ID returns the stream ID.
func (s *Stream) ID() wire.StreamID { return s.id }

// Write queues real payload bytes and triggers transmission.
func (s *Stream) Write(p []byte) {
	s.send.Write(p)
	s.conn.trySend()
}

// WriteSynthetic queues n logical bytes (benchmark mode).
func (s *Stream) WriteSynthetic(n uint64) {
	s.send.WriteSynthetic(n)
	s.conn.trySend()
}

// Close finishes the write side (sends FIN).
func (s *Stream) Close() {
	s.send.Close()
	s.conn.trySend()
}

// Readable reports contiguous unread bytes.
func (s *Stream) Readable() uint64 { return s.recv.Readable() }

// Read consumes up to n readable bytes, freeing flow-control credit.
// data is nil for synthetic payloads; otherwise it aliases the
// stream's reassembly buffer and is valid only until the connection
// ingests its next packet. Copy it to keep it longer.
func (s *Stream) Read(n uint64) (uint64, []byte) {
	consumed, data := s.recv.Read(n)
	if consumed > 0 {
		s.fc.OnConsume(consumed)
		s.conn.connFC.OnConsume(consumed)
		s.conn.maybeQueueWindowUpdates(s)
		s.conn.retireIfDone(s)
	}
	return consumed, data
}

// BytesReceived reports total distinct stream bytes that arrived.
func (s *Stream) BytesReceived() uint64 { return s.recv.BytesReceived() }

// FinReceived reports whether the peer finished writing.
func (s *Stream) FinReceived() bool { return s.recv.FinReceived() }

// Finished reports whether the peer's FIN arrived and all bytes were
// consumed by Read.
func (s *Stream) Finished() bool { return s.recv.Finished() }

// Complete reports whether every byte up to the peer's FIN has arrived.
func (s *Stream) Complete() bool { return s.recv.Complete() }

// AllAcked reports whether everything written (including FIN) is acked.
func (s *Stream) AllAcked() bool { return s.send.AllAcked() }

// OnData registers the data-arrival callback.
func (s *Stream) OnData(fn func()) { s.onData = fn }

// OnAcked registers the all-acked callback.
func (s *Stream) OnAcked(fn func()) { s.onAcked = fn }

// --- connection-side stream management ---

// OpenStream opens a new locally initiated stream.
func (c *Conn) OpenStream() *Stream {
	id := c.nextStreamID
	c.nextStreamID += 2
	return c.getOrCreateStream(id)
}

// StreamByID returns a live stream, or nil. A stream is retired, and
// no longer found here, once it is done (see retireIfDone); callers
// that need a stream past that point keep the *Stream they opened or
// were handed.
func (c *Conn) StreamByID(id wire.StreamID) *Stream {
	return c.streams[id]
}

// retireIfDone drops s from the connection once both directions are
// over: everything it sent, FIN included, is acked, and the peer's FIN
// arrived and every byte was read. A done stream has nothing left to
// send or deliver, so forgetting it changes no packet; its ID goes
// into the retired record so late duplicates cannot reopen it. A
// stream the application never reads never retires.
func (c *Conn) retireIfDone(s *Stream) {
	if !s.send.AllAcked() || !s.recv.Finished() || c.streams[s.id] != s {
		return
	}
	delete(c.streams, s.id)
	for i, id := range c.streamOrder {
		if id == s.id {
			c.streamOrder = append(c.streamOrder[:i], c.streamOrder[i+1:]...)
			break
		}
	}
	k := uint64(s.id / 2)
	c.retired[s.id&1].Add(k, k+1)
}

// isRetired reports whether stream id was retired.
func (c *Conn) isRetired(id wire.StreamID) bool {
	k := uint64(id / 2)
	return c.retired[id&1].Contains(k, k+1)
}

func (c *Conn) getOrCreateStream(id wire.StreamID) *Stream {
	if s, ok := c.streams[id]; ok {
		return s
	}
	s := &Stream{
		conn: c,
		id:   id,
		send: stream.NewSendStream(id),
		recv: stream.NewRecvStream(id),
		fc:   stream.NewFlowController(c.cfg.StreamWindow),
	}
	c.streams[id] = s
	c.streamOrder = append(c.streamOrder, id)
	return s
}

// maybeQueueWindowUpdates emits WINDOW_UPDATE frames when consumption
// freed enough credit. In multipath mode with WindowUpdateAllPaths the
// frames are copied onto every active path (§3: the scheduler "ensures
// proper delivery of the WINDOW_UPDATE frames by sending them on all
// paths when they are needed").
func (c *Conn) maybeQueueWindowUpdates(s *Stream) {
	var frames []wire.Frame
	if s.fc.ShouldSendUpdate() {
		frames = append(frames, &wire.WindowUpdateFrame{StreamID: s.id, Offset: s.fc.NextUpdate()})
	}
	if c.connFC.ShouldSendUpdate() {
		frames = append(frames, &wire.WindowUpdateFrame{StreamID: 0, Offset: c.connFC.NextUpdate()})
	}
	if len(frames) == 0 {
		return
	}
	if c.cfg.Multipath && c.cfg.WindowUpdateAllPaths {
		for _, pid := range c.pathOrder {
			p := c.paths[pid]
			if p.open {
				for _, f := range frames {
					p.queueCtrl(f)
				}
			}
		}
	} else {
		c.ctrl = append(c.ctrl, frames...)
	}
	c.trySend()
}
