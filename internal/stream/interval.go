// Package stream implements QUIC stream machinery: byte-interval
// bookkeeping, send streams with retransmission queues, receive streams
// with reassembly, and stream-/connection-level flow control.
//
// Streams support a synthetic-payload mode used by the benchmark
// harness: applications can write N logical bytes without materializing
// them, so a 20 MB transfer costs O(intervals) memory instead of 20 MB.
// Byte accounting is identical in both modes.
package stream

import (
	"fmt"
	"sort"
)

// Interval is a half-open byte range [Start, End).
type Interval struct {
	Start, End uint64
}

// Len returns the interval length.
func (iv Interval) Len() uint64 { return iv.End - iv.Start }

// IntervalSet is a sorted, coalesced set of half-open intervals.
// The zero value is an empty set.
type IntervalSet struct {
	ivs []Interval
}

// Empty reports whether the set contains no bytes.
func (s *IntervalSet) Empty() bool { return len(s.ivs) == 0 }

// Size returns the total number of bytes covered.
func (s *IntervalSet) Size() uint64 {
	var n uint64
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// Intervals returns the underlying sorted intervals (do not mutate).
func (s *IntervalSet) Intervals() []Interval { return s.ivs }

// Add inserts [start, end), coalescing with neighbors.
func (s *IntervalSet) Add(start, end uint64) {
	if start >= end {
		return
	}
	// Find insertion point: first interval with End >= start.
	i := 0
	for i < len(s.ivs) && s.ivs[i].End < start {
		i++
	}
	j := i
	newIv := Interval{start, end}
	for j < len(s.ivs) && s.ivs[j].Start <= end {
		if s.ivs[j].Start < newIv.Start {
			newIv.Start = s.ivs[j].Start
		}
		if s.ivs[j].End > newIv.End {
			newIv.End = s.ivs[j].End
		}
		j++
	}
	// Replace ivs[i:j] by newIv in place; only a pure insertion (j ==
	// i) grows the slice.
	if j == i {
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[i+1:], s.ivs[i:])
		s.ivs[i] = newIv
		return
	}
	s.ivs[i] = newIv
	s.ivs = append(s.ivs[:i+1], s.ivs[j:]...)
}

// Remove deletes [start, end) from the set, splitting as needed.
func (s *IntervalSet) Remove(start, end uint64) {
	if start >= end {
		return
	}
	var out []Interval
	for _, iv := range s.ivs {
		if iv.End <= start || iv.Start >= end {
			out = append(out, iv)
			continue
		}
		if iv.Start < start {
			out = append(out, Interval{iv.Start, start})
		}
		if iv.End > end {
			out = append(out, Interval{end, iv.End})
		}
	}
	s.ivs = out
}

// Contains reports whether every byte of [start, end) is in the set.
// O(log n): the intervals are sorted and disjoint, so only the first
// interval ending past start can cover the range.
func (s *IntervalSet) Contains(start, end uint64) bool {
	if start >= end {
		return true
	}
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > start })
	if i == len(s.ivs) {
		return false
	}
	iv := s.ivs[i]
	return iv.Start <= start && end <= iv.End
}

// FirstMissingFrom returns the first byte >= from not covered by the
// set (i.e. the reassembly frontier when from is the read offset).
func (s *IntervalSet) FirstMissingFrom(from uint64) uint64 {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].End > from })
	if i == len(s.ivs) || s.ivs[i].Start > from {
		return from
	}
	return s.ivs[i].End
}

// Pop removes and returns up to maxLen bytes from the lowest interval.
// It returns a zero interval when the set is empty.
func (s *IntervalSet) Pop(maxLen uint64) Interval {
	if len(s.ivs) == 0 || maxLen == 0 {
		return Interval{}
	}
	iv := s.ivs[0]
	if iv.Len() <= maxLen {
		s.ivs = s.ivs[1:]
		return iv
	}
	taken := Interval{iv.Start, iv.Start + maxLen}
	s.ivs[0].Start = taken.End
	return taken
}

func (s *IntervalSet) String() string { return fmt.Sprint(s.ivs) }
