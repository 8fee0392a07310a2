package stream

import (
	"bytes"
	"testing"

	"mpquic/internal/wire"
)

// pattern is the stream content the reassembly tests send: byte i of
// the stream is pattern(i), so any misplaced byte shows.
func pattern(i uint64) byte { return byte(i*7 + i>>8 + 3) }

// realFrame returns the frame carrying stream bytes [off, off+n).
func realFrame(off, n uint64, fin bool) *wire.StreamFrame {
	data := make([]byte, n)
	for i := range data {
		data[i] = pattern(off + uint64(i))
	}
	return &wire.StreamFrame{StreamID: 3, Offset: off, Data: data, Fin: fin}
}

// readAll reads every readable byte and checks it against pattern.
func readAll(t *testing.T, r *RecvStream) uint64 {
	t.Helper()
	from := r.ReadOffset()
	n, data := r.Read(r.Readable())
	for i, b := range data {
		if want := pattern(from + uint64(i)); b != want {
			t.Fatalf("byte %d = %#x, want %#x", from+uint64(i), b, want)
		}
	}
	if uint64(len(data)) != n {
		t.Fatalf("read %d bytes but got %d of data", n, len(data))
	}
	return n
}

func TestRecvWindowReordersDuplicatesAndOverlaps(t *testing.T) {
	r := NewRecvStream(3)
	steps := []struct {
		off, n   uint64
		fin      bool
		wantNew  uint64
		readable uint64
	}{
		{100, 50, false, 50, 0},  // ahead of a gap
		{0, 40, false, 40, 40},   // in order
		{100, 50, false, 0, 40},  // exact duplicate
		{30, 80, false, 60, 150}, // overlaps both sides, fills the gap
		{140, 20, true, 10, 160}, // overlapping FIN frame
		{0, 160, true, 0, 160},   // whole-stream duplicate with FIN
	}
	for i, s := range steps {
		got, err := r.OnFrame(realFrame(s.off, s.n, s.fin))
		if err != nil || got != s.wantNew {
			t.Fatalf("step %d: new %d err %v, want %d", i, got, err, s.wantNew)
		}
		if r.Readable() != s.readable {
			t.Fatalf("step %d: readable %d, want %d", i, r.Readable(), s.readable)
		}
	}
	if readAll(t, r) != 160 || !r.Finished() {
		t.Fatal("stream not finished after reading everything")
	}
	if r.buf != nil {
		t.Fatal("a finished stream keeps its buffer")
	}
}

func TestRecvWindowFrameStraddlesReadOffset(t *testing.T) {
	r := NewRecvStream(3)
	r.OnFrame(realFrame(0, 100, false))
	if readAll(t, r) != 100 {
		t.Fatal("first read")
	}
	// A retransmission covering consumed and fresh bytes: only the
	// fresh tail is new, and it lands after the consumed part.
	if n, err := r.OnFrame(realFrame(60, 100, false)); err != nil || n != 60 {
		t.Fatalf("straddling frame: new %d err %v", n, err)
	}
	// A frame wholly below the read offset adds nothing.
	if n, err := r.OnFrame(realFrame(10, 50, false)); err != nil || n != 0 {
		t.Fatalf("consumed frame: new %d err %v", n, err)
	}
	if readAll(t, r) != 60 || r.ReadOffset() != 160 {
		t.Fatalf("read offset %d", r.ReadOffset())
	}
}

func TestRecvWindowFinConflictsStillError(t *testing.T) {
	r := NewRecvStream(3)
	r.OnFrame(realFrame(0, 50, false))
	readAll(t, r)
	if _, err := r.OnFrame(realFrame(50, 50, true)); err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	if !r.Finished() {
		t.Fatal("not finished")
	}
	// The buffer is gone, but the FIN offset still binds.
	if _, err := r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: 120, Fin: true}); err == nil {
		t.Fatal("conflicting FIN accepted after the stream finished")
	}
	if _, err := r.OnFrame(realFrame(90, 20, false)); err == nil {
		t.Fatal("data past FIN accepted after the stream finished")
	}
	r = NewRecvStream(3)
	r.OnFrame(realFrame(0, 80, false))
	if _, err := r.OnFrame(realFrame(20, 30, true)); err == nil {
		t.Fatal("FIN below received data accepted")
	}
}

func TestRecvWindowSmallStreamAllocatesItsSize(t *testing.T) {
	r := NewRecvStream(3)
	r.OnFrame(realFrame(0, 100, true))
	if c := cap(r.buf); c != 100 {
		t.Fatalf("100 B stream holds a %d B buffer", c)
	}
}

// A long stream read as it arrives holds a buffer bounded by its
// unread span, not by its length, and every byte arrives intact.
func TestRecvWindowLongStreamBuffersOnlyUnread(t *testing.T) {
	const total = 100 << 20
	const mtu = 1350
	r := NewRecvStream(3)
	var maxSpan, read uint64
	frame := func(off uint64) {
		n := uint64(mtu)
		if off+n > total {
			n = total - off
		}
		if _, err := r.OnFrame(realFrame(off, n, off+n == total)); err != nil {
			t.Fatal(err)
		}
		hi := r.received.ivs[len(r.received.ivs)-1].End
		if span := hi - r.ReadOffset(); span > maxSpan {
			maxSpan = span
		}
		if c := uint64(cap(r.buf)); c > 2*maxSpan+mtu {
			t.Fatalf("at offset %d: cap %d > 2*%d+%d", off, c, maxSpan, mtu)
		}
	}
	// Frames arrive in order except that every 16th pair swaps and
	// every 1000th frame is delayed by 40 frames, as a second path
	// would reorder them.
	var delayed []uint64
	for i, off := 0, uint64(0); off < total; i, off = i+1, off+mtu {
		switch {
		case i%1000 == 999:
			delayed = append(delayed, off)
			continue
		case i%16 == 0 && off+mtu < total:
			frame(off + mtu)
			frame(off)
			i, off = i+1, off+mtu
		default:
			frame(off)
		}
		if len(delayed) > 0 && i%1000 == 39 {
			frame(delayed[0])
			delayed = delayed[1:]
		}
		read += readAll(t, r)
	}
	for _, off := range delayed {
		frame(off)
	}
	read += readAll(t, r)
	if read != total || !r.Finished() {
		t.Fatalf("read %d of %d, finished %v", read, total, r.Finished())
	}
}

// recvModel is the reference for FuzzRecvStream: it keeps the whole
// stream, indexed from offset 0, with a flag per received byte.
type recvModel struct {
	data, have []byte
	read       uint64
	fin        uint64
	hasFin     bool
}

func (m *recvModel) onFrame(off uint64, data []byte, fin bool) (uint64, bool) {
	end := off + uint64(len(data))
	hi := uint64(len(m.have))
	for hi > 0 && m.have[hi-1] == 0 {
		hi--
	}
	if fin && ((m.hasFin && m.fin != end) || hi > end) {
		return 0, false
	}
	if m.hasFin && end > m.fin {
		return 0, false
	}
	if fin {
		m.hasFin, m.fin = true, end
	}
	for uint64(len(m.data)) < end {
		m.data = append(m.data, 0)
		m.have = append(m.have, 0)
	}
	var fresh uint64
	for i, b := range data {
		if m.have[off+uint64(i)] == 0 {
			m.have[off+uint64(i)] = 1
			m.data[off+uint64(i)] = b
			fresh++
		}
	}
	return fresh, true
}

func (m *recvModel) readable() uint64 {
	i := m.read
	for i < uint64(len(m.have)) && m.have[i] == 1 {
		i++
	}
	return i - m.read
}

// FuzzRecvStream drives random frame and read sequences through
// RecvStream and the whole-stream reference model: the bytes read and
// every OnFrame, Readable and Finished result must agree.
func FuzzRecvStream(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 1, 5, 0, 0, 20, 2, 0, 5, 1, 3})
	f.Add([]byte{0, 2, 0, 40, 3, 0, 0, 0, 200, 0, 1, 200, 0, 0, 100, 2, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := NewRecvStream(3)
		m := &recvModel{}
		for len(ops) >= 4 {
			op, a, b, c := ops[0], uint64(ops[1]), uint64(ops[2]), uint64(ops[3])
			ops = ops[4:]
			if op%4 == 3 { // read up to a*b bytes
				n, data := r.Read(a * b)
				want := m.data[m.read : m.read+min(a*b, m.readable())]
				if n != uint64(len(want)) || !bytes.Equal(data, want) {
					t.Fatalf("read %d %x, want %x", n, data, want)
				}
				m.read += n
			} else { // frame [a*16+b, +c*(op%4)), FIN when op has bit 4
				off, n, fin := a*16+b, c*uint64(op%4), op&0x10 != 0
				data := make([]byte, n)
				for i := range data {
					data[i] = pattern(off + uint64(i))
				}
				got, err := r.OnFrame(&wire.StreamFrame{StreamID: 3, Offset: off, Data: data, Fin: fin})
				want, ok := m.onFrame(off, data, fin)
				if (err == nil) != ok || got != want {
					t.Fatalf("frame [%d,+%d) fin %v: new %d err %v, model new %d ok %v", off, n, fin, got, err, want, ok)
				}
				for i := range data {
					data[i] = 0 // the stream must have copied the frame
				}
			}
			if r.Readable() != m.readable() {
				t.Fatalf("readable %d, model %d", r.Readable(), m.readable())
			}
			if fin := m.hasFin && m.read == m.fin; r.Finished() != fin {
				t.Fatalf("finished %v, model %v", r.Finished(), fin)
			}
		}
	})
}
