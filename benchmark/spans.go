package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"mpquic/internal/perf"
)

// spanName identifies a layer boundary.
type spanName uint8

const (
	spanOp        spanName = iota // root: one GET or request
	spanCoreRxCli                 // core HandleDatagram, client endpoint
	spanCoreRxSrv                 // core HandleDatagram, server endpoint
	spanSockWrite                 // live socket WriteToUDPAddrPort
	numSpanNames
)

var spanNames = [numSpanNames]string{"op", "core.rx.client", "core.rx.server", "live.sock.write"}

// span is one timed interval at a layer boundary. Every span of one
// operation carries that operation's id; the root span (name op) has
// no parent and every other span's parent is its operation's root.
type span struct {
	name       spanName
	op         uint32
	start, end int64 // ns on the run's stopwatch
}

// recorder keeps spans in a preallocated buffer and per-name totals.
// One recorder belongs to one goroutine (an endpoint's run loop), so
// recording takes no lock. When the buffer is full,
// further spans still count in the totals but are not kept; self
// times are then computed over the operations recorded completely.
type recorder struct {
	sw       *perf.Stopwatch
	spans    []span
	full     bool
	firstGap uint32 // smallest op with a dropped span (0: none)
	calls    [numSpanNames]uint64
	totalNs  [numSpanNames]int64
}

func newRecorder(sw *perf.Stopwatch, capacity int) *recorder {
	return &recorder{sw: sw, spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(r.sw.Elapsed()) }

func (r *recorder) add(name spanName, op uint32, start, end int64) {
	r.calls[name]++
	r.totalNs[name] += end - start
	if len(r.spans) == cap(r.spans) {
		if !r.full || op < r.firstGap {
			r.firstGap = op
		}
		r.full = true
		return
	}
	r.spans = append(r.spans, span{name: name, op: op, start: start, end: end})
}

// opClock is the operation id the client side is currently working
// on; server-side wrappers read it to attribute their spans.
type opClock struct{ cur atomic.Uint32 }

// spanReport merges recorders and derives each layer's self time per
// operation: a span's duration minus the part of that interval its
// children cover. Children here are leaves, so their self time is their
// duration; the root's is the time no child layer was active (waits
// in the kernel, the scheduler and the driver loop).
func spanReport(m map[string]float64, recs ...*recorder) []span {
	limit := ^uint32(0)
	var all []span
	for _, r := range recs {
		if r.full && r.firstGap < limit {
			limit = r.firstGap
		}
		all = append(all, r.spans...)
	}
	// Keep complete operations only.
	kept := all[:0]
	for _, s := range all {
		if s.op < limit {
			kept = append(kept, s)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].op != kept[j].op {
			return kept[i].op < kept[j].op
		}
		return kept[i].start < kept[j].start
	})
	var self [numSpanNames]int64
	ops := 0
	for i := 0; i < len(kept); {
		j := i
		for j < len(kept) && kept[j].op == kept[i].op {
			j++
		}
		group := kept[i:j]
		i = j
		root := -1
		for k, s := range group {
			if s.name == spanOp {
				root = k
			}
		}
		if root < 0 {
			continue // spans before the first op or after the last
		}
		ops++
		rs := group[root]
		covered, reach := int64(0), rs.start
		for _, s := range group { // sorted by start
			if s.name == spanOp {
				continue
			}
			self[s.name] += s.end - s.start
			lo, hi := max(s.start, reach), min(s.end, rs.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[spanOp] += rs.end - rs.start - covered
	}
	for n := spanName(0); n < numSpanNames; n++ {
		m["self_us."+spanNames[n]] = ratio(float64(self[n])/1e3, float64(ops))
	}
	return kept
}

// totals sums the per-name call counts and times over recorders.
func totals(name spanName, recs ...*recorder) (calls uint64, ns int64) {
	for _, r := range recs {
		calls += r.calls[name]
		ns += r.totalNs[name]
	}
	return calls, ns
}

// writeSpans writes kept spans as JSON lines, one span per line, with
// the host fingerprint and seed in a header line, replacing the
// workload's previous file (a live-bulk file runs to tens of MB). Root
// span ids are the operation ids; other spans are numbered after the
// largest op.
func writeSpans(e *env, spans []span) error {
	if err := os.MkdirAll(e.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.spansDir, e.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"host\":%s,\"workload\":%q,\"seed\":%d}\n", hostFingerprint(e), e.name, e.seed)
	next := uint64(0)
	for _, s := range spans {
		if uint64(s.op) > next {
			next = uint64(s.op)
		}
	}
	for _, s := range spans {
		id, parent := uint64(s.op), uint64(s.op)
		if s.name == spanOp {
			parent = 0
		} else {
			next++
			id = next
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"trace\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			id, parent, s.op, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
