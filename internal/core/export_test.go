package core

import "mpquic/internal/wire"

// LiveStreams reports how many streams c still tracks.
func (c *Conn) LiveStreams() int { return len(c.streams) }

// InjectFrame hands f to c as if it had arrived on path 0, then runs a
// send pass, as HandleDatagram does after a packet's frames.
func (c *Conn) InjectFrame(f wire.Frame) {
	c.handleFrame(c.paths[0], f)
	c.trySend()
}
