package stream

import (
	"fmt"

	"mpquic/internal/wire"
)

// RecvStream reassembles STREAM frames arriving out of order — possibly
// over different paths — using the (offset, length) information that
// makes multipath reordering trivial for QUIC (§3, Reliable Data
// Transmission).
type RecvStream struct {
	id       wire.StreamID
	received IntervalSet
	// buf holds real-mode bytes [base, base+len(buf)), a window that
	// starts at or before readOffset and ends at the highest received
	// byte: consumed bytes are reclaimed, so memory follows the unread
	// span rather than the stream's length. nil until real data
	// arrives, and again once the stream is finished.
	buf        []byte
	base       uint64
	readOffset uint64
	finOffset  uint64
	hasFin     bool
}

// NewRecvStream creates an empty receive stream.
func NewRecvStream(id wire.StreamID) *RecvStream {
	return &RecvStream{id: id}
}

// ID returns the stream ID.
func (r *RecvStream) ID() wire.StreamID { return r.id }

// OnFrame ingests one STREAM frame. It returns the number of
// previously unseen bytes (for connection flow-control accounting) and
// an error on inconsistent FIN offsets.
func (r *RecvStream) OnFrame(f *wire.StreamFrame) (newBytes uint64, err error) {
	end := f.Offset + uint64(f.Len())
	if f.Fin {
		if r.hasFin && r.finOffset != end {
			return 0, fmt.Errorf("stream %d: conflicting FIN offsets %d and %d", r.id, r.finOffset, end)
		}
		if n := len(r.received.ivs); n > 0 && r.received.ivs[n-1].End > end {
			return 0, fmt.Errorf("stream %d: FIN offset %d below received data", r.id, end)
		}
		r.hasFin = true
		r.finOffset = end
	}
	if r.hasFin && end > r.finOffset {
		return 0, fmt.Errorf("stream %d: data beyond FIN offset", r.id)
	}
	if f.Len() == 0 {
		return 0, nil
	}
	before := r.received.Size()
	r.received.Add(f.Offset, end)
	newBytes = r.received.Size() - before
	if f.Data != nil && newBytes > 0 && end > r.readOffset {
		data, start := f.Data, f.Offset
		if start < r.readOffset {
			data, start = data[r.readOffset-start:], r.readOffset
		}
		r.reserve(end)
		copy(r.buf[start-r.base:], data)
	}
	return newBytes, nil
}

// reserve makes buf cover [readOffset, end). When end falls past the
// buffer's capacity, the unread bytes move to the front of the buffer
// if they fill at most half of it, and into a buffer twice their new
// span otherwise. Either way the bytes moved are fewer than the free
// space left behind, which later frames must fill before the next
// move, so each received byte is copied at most once more (amortized)
// and the capacity stays within twice the largest unread span.
func (r *RecvStream) reserve(end uint64) {
	if end-r.base <= uint64(cap(r.buf)) {
		if n := end - r.base; n > uint64(len(r.buf)) {
			r.buf = r.buf[:n]
		}
		return
	}
	var unread []byte
	if lo := r.readOffset - r.base; lo < uint64(len(r.buf)) {
		unread = r.buf[lo:]
	}
	need := end - r.readOffset
	if need <= uint64(cap(r.buf))/2 {
		copy(r.buf[:cap(r.buf)], unread)
		r.buf = r.buf[:need]
	} else {
		newCap := 2 * need
		if r.hasFin && r.finOffset-r.readOffset < newCap {
			newCap = r.finOffset - r.readOffset // the stream's length is known
		}
		grown := make([]byte, need, newCap)
		copy(grown, unread)
		r.buf = grown
	}
	r.base = r.readOffset
}

// Readable reports contiguous bytes available past the read offset.
func (r *RecvStream) Readable() uint64 {
	return r.received.FirstMissingFrom(r.readOffset) - r.readOffset
}

// Read consumes up to n contiguous bytes and returns how many were
// consumed plus the real-mode bytes (nil in synthetic mode). The
// returned slice aliases the reassembly buffer: it stays valid only
// until the next OnFrame call, which may move or overwrite it. Copy
// the bytes to keep them longer.
func (r *RecvStream) Read(n uint64) (consumed uint64, data []byte) {
	avail := r.Readable()
	if n > avail {
		n = avail
	}
	if n == 0 {
		return 0, nil
	}
	if lo := r.readOffset - r.base; r.buf != nil && lo+n <= uint64(len(r.buf)) {
		data = r.buf[lo : lo+n]
	}
	r.readOffset += n
	if r.Finished() {
		r.buf, r.base = nil, r.readOffset // nothing more can arrive
	}
	return n, data
}

// ReadOffset returns the application's consumption frontier.
func (r *RecvStream) ReadOffset() uint64 { return r.readOffset }

// BytesReceived returns the total distinct bytes received so far.
func (r *RecvStream) BytesReceived() uint64 { return r.received.Size() }

// FinReceived reports whether a FIN has arrived (at any offset).
func (r *RecvStream) FinReceived() bool { return r.hasFin }

// FinOffset returns the stream length once FIN was seen.
func (r *RecvStream) FinOffset() (uint64, bool) { return r.finOffset, r.hasFin }

// Finished reports whether the application consumed the whole stream.
func (r *RecvStream) Finished() bool {
	return r.hasFin && r.readOffset == r.finOffset
}

// Complete reports whether all bytes up to FIN have *arrived*
// (regardless of application consumption).
func (r *RecvStream) Complete() bool {
	if !r.hasFin {
		return false
	}
	if r.finOffset == 0 {
		return true
	}
	return r.received.Contains(0, r.finOffset)
}
