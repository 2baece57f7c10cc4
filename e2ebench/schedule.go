package main

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/spec"
)

// book maps (topic, seq) onto a dense message index, topic-major: topic t's
// seq s (1-based, as publishers assign them) is index base[t]+s-1. Topic
// IDs are dense from zero. Per-message records (publish start, receipt,
// trace stamps) live in flat slices indexed this way, allocated before the
// run so recording costs a store.
type book struct {
	base  []int // base[t]: index of topic t's seq 1
	count []int // messages topic t may carry
	total int
}

func newBook(counts []int) book {
	b := book{base: make([]int, len(counts)), count: counts}
	for t, n := range counts {
		b.base[t] = b.total
		b.total += n
	}
	return b
}

// index returns the message index of (topic, seq), or false when the pair
// lies outside the book.
func (b book) index(topic spec.TopicID, seq uint64) (int, bool) {
	t := int(topic)
	if t < 0 || t >= len(b.base) || seq == 0 || seq > uint64(b.count[t]) {
		return 0, false
	}
	return b.base[t] + int(seq) - 1, true
}

// slot is one scheduled publish of an open-loop run.
type slot struct {
	due   time.Duration // offset from the run's start
	topic spec.TopicID
	seq   uint64
}

// schedule is an open-loop run's input: every publish of every topic in
// due-time order, plus the payload bytes, all derived from the seed before
// the deployment starts so the generator only walks a slice.
type schedule struct {
	topics []spec.Topic
	book   book
	slots  []slot          // sorted by due
	dueOf  []time.Duration // by message index
	span   time.Duration
	arena  []byte // payloads, message-index order
	psize  int
}

// tick is the schedule's time grain. Publishers in the paper's evaluation
// are proxies that batch one message per topic they own, so every publish
// falls on a 1 ms tick and each tick's messages go out back to back. It
// also keeps the generator to about a thousand wakeups a second, whatever
// the rate.
const tick = time.Millisecond

// newSchedule paces each topic at its period Ti from a seeded phase, a
// whole number of ticks in [0, Ti), over span. Phases are shifted so the
// earliest publish is due at zero.
func newSchedule(topics []spec.Topic, seed uint64, span time.Duration, pat *pattern) *schedule {
	rng := rand.New(rand.NewPCG(seed, uint64(len(topics))))
	phase := make([]time.Duration, len(topics))
	first := time.Duration(-1)
	for i, t := range topics {
		phase[i] = time.Duration(rng.Int64N(int64(t.Period/tick))) * tick
		if first < 0 || phase[i] < first {
			first = phase[i]
		}
	}
	counts := make([]int, len(topics))
	for i, t := range topics {
		phase[i] -= first
		if phase[i] < span {
			counts[i] = int((span-phase[i]-1)/t.Period) + 1
		}
	}
	s := &schedule{topics: topics, book: newBook(counts), span: span, psize: spec.PayloadSize}
	s.slots = make([]slot, 0, s.book.total)
	s.dueOf = make([]time.Duration, s.book.total)
	s.arena = make([]byte, s.book.total*s.psize)
	for i, t := range topics {
		for k := 0; k < counts[i]; k++ {
			due := phase[i] + time.Duration(k)*t.Period
			seq := uint64(k + 1)
			idx, _ := s.book.index(t.ID, seq)
			s.slots = append(s.slots, slot{due: due, topic: t.ID, seq: seq})
			s.dueOf[idx] = due
			pat.fill(s.payload(idx), t.ID, seq)
		}
	}
	slices.SortFunc(s.slots, func(a, b slot) int {
		if c := cmp.Compare(a.due, b.due); c != 0 {
			return c
		}
		return cmp.Compare(a.topic, b.topic)
	})
	return s
}

func (s *schedule) payload(idx int) []byte {
	return s.arena[idx*s.psize : (idx+1)*s.psize : (idx+1)*s.psize]
}

// rate is the schedule's offered load in messages per second.
func (s *schedule) rate() float64 { return float64(len(s.slots)) / s.span.Seconds() }

// pattern derives payload bytes from (seed, topic, seq): an 8-byte mixed
// header followed by a window into a seeded random block whose offset also
// depends on the header, so a payload delivered under the wrong topic or
// sequence number, truncated, or corrupted fails verification.
type pattern struct {
	seed  uint64
	block []byte
	max   int
}

func newPattern(seed uint64, maxPayload int) *pattern {
	p := &pattern{seed: seed, block: make([]byte, 2*maxPayload), max: maxPayload}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for i := 0; i+8 <= len(p.block); i += 8 {
		binary.LittleEndian.PutUint64(p.block[i:], rng.Uint64())
	}
	return p
}

// mix is splitmix64's finalizer over the three inputs.
func mix(seed uint64, topic spec.TopicID, seq uint64) uint64 {
	z := seed ^ uint64(topic)<<40 ^ seq*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fill writes the payload of (topic, seq) into dst; len(dst) is the payload
// size, at least 8 and at most the pattern's maximum.
func (p *pattern) fill(dst []byte, topic spec.TopicID, seq uint64) {
	h := mix(p.seed, topic, seq)
	binary.LittleEndian.PutUint64(dst, h)
	off := int(h % uint64(p.max))
	copy(dst[8:], p.block[off:])
}

// verify reports whether b is exactly the payload of (topic, seq) at size n.
func (p *pattern) verify(b []byte, n int, topic spec.TopicID, seq uint64) bool {
	if len(b) != n || n < 8 {
		return false
	}
	h := mix(p.seed, topic, seq)
	if binary.LittleEndian.Uint64(b) != h {
		return false
	}
	off := int(h % uint64(p.max))
	return bytes.Equal(b[8:], p.block[off:off+n-8])
}
