package main

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/spec"
)

// traceBuf is the traced run's event sink: a preallocated slice filled
// through one atomic index, so the broker's tracer hook costs an add and a
// store. Events past capacity are counted, not kept. Read events only
// after every broker goroutine that could fire the hook has stopped.
type traceBuf struct {
	ev   []obsv.TraceEvent
	n    atomic.Int64
	lost atomic.Int64
}

func newTraceBuf(capacity int) *traceBuf {
	return &traceBuf{ev: make([]obsv.TraceEvent, capacity)}
}

func (t *traceBuf) note(ev obsv.TraceEvent) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.ev)) {
		t.lost.Add(1)
		return
	}
	t.ev[i] = ev
}

func (t *traceBuf) events() []obsv.TraceEvent {
	n := t.n.Load()
	if n > int64(len(t.ev)) {
		n = int64(len(t.ev))
	}
	return t.ev[:n]
}

// stamps are one message's broker-side lifecycle times; zero means the
// event was not seen.
type stamps struct {
	publish, durable time.Duration
	dispPop, dispAck time.Duration
	repPop, repAck   time.Duration
}

type jobKind uint8

const (
	jobDispatch jobKind = iota
	jobReplicate
)

type openJob struct {
	kind jobKind
	pop  time.Duration
}

// pairing is the per-message state of the span pairer: pops not yet
// classified, and classified jobs waiting for their Ack.
type pairing struct {
	pend  [2]time.Duration
	npend uint8
	open  [2]openJob
	nopen uint8
}

// pairStats counts pairings the event stream left uncertain.
type pairStats struct {
	ambiguous int // an Ack or classification with two candidates
	orphans   int // events with no matching predecessor, or unknown keys
}

// pairSpans folds a broker event stream, in recording order, into
// per-message stamps. A worker fires Pop, then Dispatch or Replicate, then
// Ack for each job, so the job kind of a Pop is known only from the event
// between it and its Ack: a Dispatch (or Replicate) claims the pending Pop
// of its message closest before it in time, and an Ack closes the oldest
// classified job. With one job in flight per message this is exact; when
// two workers hold both jobs of one message at once the choice is a best
// guess and is counted as ambiguous.
func pairSpans(evs []obsv.TraceEvent, b book) ([]stamps, pairStats) {
	st := make([]stamps, b.total)
	pr := make([]pairing, b.total)
	var ps pairStats
	for _, ev := range evs {
		idx, ok := b.index(spec.TopicID(ev.Topic), ev.Seq)
		if ev.Topic > math.MaxUint32 {
			ok = false
		}
		if !ok {
			if ev.Stage != obsv.StagePromote && ev.Stage != obsv.StageRecovery {
				ps.orphans++
			}
			continue
		}
		s, p := &st[idx], &pr[idx]
		switch ev.Stage {
		case obsv.StagePublish:
			s.publish = ev.At
		case obsv.StageDurable:
			s.durable = ev.At
		case obsv.StagePop:
			if p.npend == 2 {
				p.pend[0] = p.pend[1]
				p.npend = 1
				ps.orphans++
			}
			p.pend[p.npend] = ev.At
			p.npend++
		case obsv.StageDispatch, obsv.StageReplicate:
			if p.npend == 0 {
				ps.orphans++
				continue
			}
			if p.npend == 2 {
				ps.ambiguous++
			}
			pick := -1
			for i := 0; i < int(p.npend); i++ {
				if p.pend[i] <= ev.At && (pick < 0 || p.pend[i] > p.pend[pick]) {
					pick = i
				}
			}
			if pick < 0 {
				pick = int(p.npend) - 1
			}
			pop := p.pend[pick]
			p.pend[pick] = p.pend[p.npend-1]
			p.npend--
			kind := jobDispatch
			if ev.Stage == obsv.StageReplicate {
				kind = jobReplicate
			}
			if p.nopen == 2 {
				ps.orphans++
				continue
			}
			p.open[p.nopen] = openJob{kind: kind, pop: pop}
			p.nopen++
		case obsv.StageAck:
			switch {
			case p.nopen > 0:
				if p.nopen == 2 {
					ps.ambiguous++
				}
				j := p.open[0]
				p.open[0] = p.open[1]
				p.nopen--
				if j.kind == jobDispatch {
					s.dispPop, s.dispAck = j.pop, ev.At
				} else {
					s.repPop, s.repAck = j.pop, ev.At
				}
			case p.npend > 0:
				// A job that fired neither Dispatch nor Replicate (a
				// replica with no Backup link): retire its Pop unpaired.
				p.pend[0] = p.pend[1]
				p.npend--
			default:
				ps.orphans++
			}
		}
	}
	return st, ps
}

// spanSet holds the per-message span durations of one traced phase.
type spanSet struct {
	wait, ingress, queue, dispatch, egress, replicate, durable, ackReturn []time.Duration
}

// collectSpans turns stamps plus the benchmark's own timers into spans for
// the messages measured selects. due is when an open-loop message was due,
// pubStart when Publish was called, recvAt when the subscriber saw the
// message, ackAt when a durable Publish returned; any of them may be nil
// or hold zero for "not recorded".
func collectSpans(st []stamps, due, pubStart, recvAt, ackAt []time.Duration, measured func(int) bool) spanSet {
	var s spanSet
	add := func(dst *[]time.Duration, from, to time.Duration) {
		if from > 0 && to > 0 && to >= from {
			*dst = append(*dst, to-from)
		}
	}
	at := func(xs []time.Duration, i int) time.Duration {
		if xs == nil {
			return 0
		}
		return xs[i]
	}
	for i := range st {
		if !measured(i) {
			continue
		}
		m := st[i]
		add(&s.wait, at(due, i), at(pubStart, i))
		add(&s.ingress, at(pubStart, i), m.publish)
		add(&s.queue, m.publish, m.dispPop)
		add(&s.dispatch, m.dispPop, m.dispAck)
		add(&s.egress, m.dispAck, at(recvAt, i))
		add(&s.replicate, m.repPop, m.repAck)
		add(&s.durable, m.publish, m.durable)
		add(&s.ackReturn, m.durable, at(ackAt, i))
	}
	return s
}
