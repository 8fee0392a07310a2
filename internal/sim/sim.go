// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine drives every protocol stack and network element in this
// repository. Time is virtual: an event loop pops timestamped events from
// a binary heap and advances the clock to each event's deadline. Nothing
// ever sleeps, so a multi-second emulated transfer completes in
// microseconds of wall time and every run with the same seed is
// bit-for-bit reproducible.
//
// The loop is allocation-free in steady state: executed events return to
// a per-clock free list, the heap is a concrete []*Event with inlined
// sift-up/sift-down (no container/heap interface dispatch), and events
// scheduled for the current instant bypass the heap through a FIFO
// append-only queue.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp, measured as a duration since the start of
// the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration converts t to a time.Duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns t shifted forward by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// Never is a sentinel deadline meaning "no deadline armed".
const Never = Time(math.MaxInt64)

// Event is a unit of scheduled work.
//
// Events are pooled: once an event has executed (or has been discarded
// after cancellation) the Clock recycles its storage for a future At.
// An *Event handle is therefore only valid until the event fires;
// Cancel, Cancelled and At must not be called on a handle whose event
// already ran. Timer follows this discipline (it drops its handle when
// the timer fires) and is the safe way to hold re-armable deadlines.
type Event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among events with equal deadlines
	fn   func()
	dead bool // cancelled
	idx  int  // position in the heap, or -1 outside it
}

// At reports the deadline of the event.
func (e *Event) At() Time { return e.at }

// Cancel prevents the event from running. Cancelling an already-cancelled
// pending event is a no-op; see the pooling note on Event for handles to
// already-executed events.
func (e *Event) Cancel() { e.dead = true }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.dead }

// eventLess orders events by (deadline, scheduling sequence): FIFO among
// equal deadlines.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Clock is the simulation event loop. It is not safe for concurrent use;
// the whole simulation is single-threaded by design (determinism).
type Clock struct {
	now  Time
	heap []*Event // binary min-heap by (at, seq)
	// nowQ holds events scheduled for the instant they were created at.
	// Because virtual time is monotonic and seq increases, the queue is
	// always sorted by (at, seq): popping the head interleaves correctly
	// with the heap without any sifting.
	nowQ    []*Event
	nowHead int
	free    []*Event // recycled Event storage
	seq     uint64
	running bool
	stopped bool
	// Processed counts executed (non-cancelled) events, for tests and
	// runaway detection.
	Processed uint64
	// Limit aborts Run with an error when more than Limit events execute.
	// Zero means no limit.
	Limit uint64
}

// NewClock returns a Clock at the simulation epoch.
func NewClock() *Clock { return &Clock{} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// alloc takes an Event from the free list (or the heap's allocator).
func (c *Clock) alloc(at Time, fn func()) *Event {
	var e *Event
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		e.at, e.fn, e.dead, e.idx = at, fn, false, -1
	} else {
		e = &Event{at: at, fn: fn, idx: -1}
	}
	e.seq = c.seq
	c.seq++
	return e
}

// release returns an executed or discarded event to the free list,
// dropping its closure so captured state is collectable.
//
//mpq:noescape
func (c *Clock) release(e *Event) {
	e.fn = nil
	c.free = append(c.free, e)
}

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past (at < Now) is an error in the caller; the event is clamped to
// run "now" to keep the loop monotonic.
func (c *Clock) At(at Time, fn func()) *Event {
	if at <= c.now {
		// Same-instant fast path: append to the FIFO queue, no sifting.
		e := c.alloc(c.now, fn)
		c.nowQ = append(c.nowQ, e)
		return e
	}
	e := c.alloc(at, fn)
	c.heapPush(e)
	return e
}

// After schedules fn to run d after the current time.
func (c *Clock) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return c.At(c.now.Add(d), fn)
}

// Stop makes Run return after the currently executing event finishes.
func (c *Clock) Stop() { c.stopped = true }

// Pending reports the number of scheduled (possibly cancelled) events.
func (c *Clock) Pending() int { return len(c.heap) + len(c.nowQ) - c.nowHead }

// --- inlined binary heap on []*Event ---

//mpq:noescape
func (c *Clock) heapPush(e *Event) {
	c.heap = append(c.heap, e)
	c.siftUp(e, len(c.heap)-1)
}

// siftUp places e, which belongs at heap slot i or above, moving
// larger ancestors down.
//
//mpq:noescape
func (c *Clock) siftUp(e *Event, i int) {
	h := c.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = e
	e.idx = i
}

// siftDown places e, which belongs at heap slot i or below, moving
// smaller descendants up.
//
//mpq:noescape
func (c *Clock) siftDown(e *Event, i int) {
	h := c.heap
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventLess(h[r], h[child]) {
			child = r
		}
		if !eventLess(h[child], e) {
			break
		}
		h[i] = h[child]
		h[i].idx = i
		i = child
	}
	h[i] = e
	e.idx = i
}

// heapRemove takes the event at heap slot i out of the heap.
//
//mpq:noescape
func (c *Clock) heapRemove(i int) *Event {
	h := c.heap
	out := h[i]
	out.idx = -1
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	c.heap = h[:n]
	switch {
	case i == n: // the last slot itself: nothing moved
	case i > 0 && eventLess(last, h[(i-1)/2]):
		c.siftUp(last, i)
	default:
		c.siftDown(last, i)
	}
	return out
}

// heapPop removes and returns the heap minimum. The caller guarantees
// the heap is non-empty.
//
//mpq:noescape
func (c *Clock) heapPop() *Event {
	return c.heapRemove(0)
}

// peek returns the earliest scheduled event (possibly cancelled) without
// removing it, or nil.
//
//mpq:noescape
func (c *Clock) peek() *Event {
	var qn *Event
	if c.nowHead < len(c.nowQ) {
		qn = c.nowQ[c.nowHead]
	}
	if len(c.heap) == 0 {
		return qn
	}
	hn := c.heap[0]
	if qn == nil || eventLess(hn, qn) {
		return hn
	}
	return qn
}

// popNext removes and returns the earliest live event with deadline <=
// deadline, or nil. Cancelled events encountered on the way are
// discarded and recycled.
//
//mpq:noescape
func (c *Clock) popNext(deadline Time) *Event {
	for {
		var qn *Event
		if c.nowHead < len(c.nowQ) {
			qn = c.nowQ[c.nowHead]
		}
		var e *Event
		if hn := (*Event)(nil); len(c.heap) > 0 {
			hn = c.heap[0]
			if qn == nil || eventLess(hn, qn) {
				if hn.at > deadline {
					return nil
				}
				e = c.heapPop()
			}
		}
		if e == nil {
			if qn == nil || qn.at > deadline {
				return nil
			}
			c.nowQ[c.nowHead] = nil
			c.nowHead++
			if c.nowHead == len(c.nowQ) {
				c.nowQ = c.nowQ[:0]
				c.nowHead = 0
			}
			e = qn
		}
		if e.dead {
			c.release(e)
			continue
		}
		return e
	}
}

// NextDeadline reports the deadline of the earliest live event, or
// Never. Together with RunUntil it forms the deadline-bounded stepping
// API an external driver needs to interleave virtual time with an
// outside event source (the live UDP driver blocks on socket
// readability until the wall image of this deadline, then calls
// RunUntil) — see internal/live.
//
// Handle contract: NextDeadline discards cancelled events it finds at
// the head of the queue and recycles their storage, so any retained
// *Event handle to a cancelled event becomes invalid once NextDeadline
// (or any Run variant) is called. Only sim.Timer holds handles safely.
func (c *Clock) NextDeadline() Time {
	for {
		e := c.peek()
		if e == nil {
			return Never
		}
		if !e.dead {
			return e.at
		}
		// Discard the cancelled head and keep looking.
		if c.nowHead < len(c.nowQ) && c.nowQ[c.nowHead] == e {
			c.nowQ[c.nowHead] = nil
			c.nowHead++
			if c.nowHead == len(c.nowQ) {
				c.nowQ = c.nowQ[:0]
				c.nowHead = 0
			}
		} else {
			c.heapPop()
		}
		c.release(e)
	}
}

// run is the shared loop of Run and RunUntil: execute live events in
// (deadline, FIFO) order while their deadline is <= deadline.
func (c *Clock) run(deadline Time) error {
	c.stopped = false
	defer func() { c.running = false }()
	for !c.stopped {
		e := c.popNext(deadline)
		if e == nil {
			return nil
		}
		if e.at < c.now {
			return fmt.Errorf("sim: time went backwards: %v -> %v", c.now, e.at)
		}
		c.now = e.at
		c.Processed++
		if c.Limit > 0 && c.Processed > c.Limit {
			c.release(e)
			return fmt.Errorf("sim: event limit %d exceeded at t=%v", c.Limit, c.now)
		}
		e.fn()
		c.release(e)
	}
	return nil
}

// Run executes events in deadline order until the queue drains, Stop is
// called, or the event limit is exceeded.
func (c *Clock) Run() error {
	if c.running {
		return fmt.Errorf("sim: Run re-entered")
	}
	c.running = true
	return c.run(Never)
}

// RunUntil executes events with deadlines <= deadline, then advances the
// clock to exactly deadline. It returns any Run error.
//
// RunUntil is the deadline-bounded stepping entry point (Run runs to
// exhaustion): callers may invoke it repeatedly with increasing
// deadlines, and each call executes exactly the events Run would have
// executed in that window, in the same (deadline, FIFO) order. Because
// the clock lands on exactly deadline even when no event was due,
// repeated calls make virtual time a monotone image of any outside
// timebase — the live driver maps wall-elapsed time through it.
//
// Handle contract: an *Event handle is invalid once its event has fired
// or been discarded, regardless of which Run variant drove it; after
// RunUntil returns, handles to events with deadlines <= deadline must
// not be used. Events scheduled beyond deadline keep valid handles and
// may still be cancelled before a later call.
func (c *Clock) RunUntil(deadline Time) error {
	if c.running {
		return fmt.Errorf("sim: RunUntil re-entered")
	}
	c.running = true
	err := c.run(deadline)
	if err == nil && c.now < deadline {
		c.now = deadline
	}
	return err
}

// Timer is a re-armable single-shot timer bound to a Clock, analogous to
// time.Timer but virtual. The zero value is unusable; use NewTimer.
type Timer struct {
	clock  *Clock
	ev     *Event
	fn     func()
	fireFn func() // t.fire, bound once so re-arming allocates nothing
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func NewTimer(c *Clock, fn func()) *Timer {
	t := &Timer{clock: c, fn: fn}
	t.fireFn = t.fire
	return t
}

// Reset (re)arms the timer to fire at absolute time at, replacing any
// previously armed deadline.
func (t *Timer) Reset(at Time) {
	t.Stop()
	t.ev = t.clock.At(at, t.fireFn)
}

// ResetAfter (re)arms the timer to fire d from now.
func (t *Timer) ResetAfter(d time.Duration) { t.Reset(t.clock.Now().Add(d)) }

func (t *Timer) fire() {
	t.ev = nil
	t.fn()
}

// Stop disarms the timer. It reports whether a pending firing was
// prevented.
func (t *Timer) Stop() bool {
	e := t.ev
	if e == nil {
		return false
	}
	t.ev = nil
	if e.idx >= 0 {
		// The timer holds the only handle: recycle the event now
		// rather than leave it in the heap until its deadline.
		t.clock.release(t.clock.heapRemove(e.idx))
		return true
	}
	e.Cancel()
	return true
}

// Armed reports whether the timer currently has a pending deadline.
func (t *Timer) Armed() bool { return t.ev != nil }

// Deadline reports the pending deadline, or Never when unarmed.
func (t *Timer) Deadline() Time {
	if t.ev == nil {
		return Never
	}
	return t.ev.at
}
