// Package apps provides the benchmark applications from the paper's
// evaluation: an https-like GET file transfer (§4.1, §4.2) and the
// request/response traffic of the handover scenario (§4.3). Both run
// over the core (MP)QUIC engine; sibling implementations for the
// (MP)TCP baselines live in the tcpsim/mptcpsim packages.
package apps

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mpquic/internal/core"
)

// GetServer serves synthetic files: a client writes "GET <bytes>" on a
// stream, the server responds with that many bytes on the same stream.
type GetServer struct {
	listener *core.Listener
}

// NewGetServer attaches a GET responder to every connection the
// listener accepts.
func NewGetServer(l *core.Listener) *GetServer {
	g := &GetServer{listener: l}
	l.OnConnection(func(c *core.Conn) {
		c.OnStreamOpen(func(s *core.Stream) { g.serveStream(s) })
	})
	return g
}

func (g *GetServer) serveStream(s *core.Stream) {
	var req strings.Builder
	served := false
	s.OnData(func() {
		if n := s.Readable(); n > 0 {
			_, data := s.Read(n)
			req.Write(data)
		}
		if served || !s.FinReceived() || !s.Finished() {
			return
		}
		served = true
		size, err := ParseGet(req.String())
		if err != nil {
			return
		}
		s.WriteSynthetic(size)
		s.Close()
	})
}

// ParseGet extracts the requested size from "GET <bytes>".
func ParseGet(req string) (uint64, error) {
	fields := strings.Fields(req)
	if len(fields) != 2 || fields[0] != "GET" {
		return 0, fmt.Errorf("apps: bad request %q", req)
	}
	return strconv.ParseUint(fields[1], 10, 62)
}

// FormatGet renders a request line.
func FormatGet(size uint64) string { return fmt.Sprintf("GET %d", size) }

// GetResult reports one finished download.
type GetResult struct {
	// Size is the requested file size in bytes.
	Size uint64
	// Start is the virtual time Dial was called (the paper measures
	// "from the transmission of the first connection packet").
	Start time.Duration
	// Finish is the virtual time the last byte was consumed.
	Finish time.Duration
	// HandshakeDone is when the client completed the handshake.
	HandshakeDone time.Duration
}

// Elapsed returns the client-perceived download time.
func (r GetResult) Elapsed() time.Duration { return r.Finish - r.Start }

// GoodputBps returns application goodput in bits per second.
func (r GetResult) GoodputBps() float64 {
	el := r.Elapsed().Seconds()
	if el <= 0 {
		return 0
	}
	return float64(r.Size) * 8 / el
}

// GetClient downloads one file over a fresh stream as soon as the
// handshake completes.
type GetClient struct {
	conn   *core.Conn
	stream *core.Stream
	size   uint64
	start  time.Duration
	now    func() time.Duration
	result *GetResult
	onDone func(GetResult)
}

// NewGetClient arms a download of size bytes on conn. now must be the
// simulation time source; onDone fires at completion (may be nil).
func NewGetClient(conn *core.Conn, size uint64, now func() time.Duration, onDone func(GetResult)) *GetClient {
	g := &GetClient{conn: conn, size: size, start: now(), now: now, onDone: onDone}
	conn.OnHandshakeComplete(func() { g.sendRequest() })
	return g
}

func (g *GetClient) sendRequest() {
	s := g.conn.OpenStream()
	g.stream = s
	hsDone := g.now()
	s.OnData(func() {
		if n := s.Readable(); n > 0 {
			s.Read(n) // consume to keep flow-control credit moving
		}
		if s.Finished() && g.result == nil {
			r := GetResult{Size: g.size, Start: g.start, Finish: g.now(), HandshakeDone: hsDone}
			g.result = &r
			if g.onDone != nil {
				g.onDone(r)
			}
		}
	})
	s.Write([]byte(FormatGet(g.size)))
	s.Close()
}

// Stream returns the download's stream, or nil before the handshake
// completes. It stays usable after the connection retires the stream.
func (g *GetClient) Stream() *core.Stream { return g.stream }

// Result returns the finished download, or nil while in flight.
func (g *GetClient) Result() *GetResult { return g.result }

// Done reports completion.
func (g *GetClient) Done() bool { return g.result != nil }
