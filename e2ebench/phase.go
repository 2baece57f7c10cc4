package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/diskstore"
	"repro/internal/spec"
)

// runner holds what every phase of one benchmark run shares.
type runner struct {
	seed    uint64
	clock   func() time.Duration
	pat     *pattern
	logRoot string // durable log directories are created under here
}

// phaseOut is one phase's measurements. A phase is one fresh deployment
// driven for warm+measure; only messages due (open loop) or started
// (closed loop) inside the measure window count toward latency and loss.
type phaseOut struct {
	name      string
	setup     time.Duration   // bring-up start → first delivery or ack
	lat       []time.Duration // measured-window latencies
	latAt     []time.Duration // when each measured message was due (open loop) or started
	attempted int             // measured-window messages
	lost      int             // measured-window messages never delivered or acked
	problems  []string        // failed correctness checks

	reorders  int // deliveries below the topic's highest seq seen
	delivered int // all deliveries (or acks) of the phase
	evicted   bool
	pubCall   []time.Duration // Publish call durations, measured window
	genLate   []time.Duration // start − due, measured window (open loop)
	bytes     int64           // payload bytes completed in the measured window
	window    time.Duration   // measured-window length
	cpu       time.Duration   // process CPU, start of traffic → drained
	kernel    bool            // io_uring carried egress sweeps
	layers    map[string]float64
	spans     *spanSet
	pairs     pairStats
	traceLost int64
	replay    time.Duration // OpenSegmented after stop (durable only)
}

func (o *phaseOut) fail(format string, args ...any) {
	o.problems = append(o.problems, o.name+": "+fmt.Sprintf(format, args...))
}

// receiver is the subscriber-side recorder. OnDeliver runs on the single
// receive goroutine of the single subscriber connection, so the plain
// fields need no lock; they are read after the clients are closed, which
// waits for that goroutine.
type receiver struct {
	book   book
	pat    *pattern
	size   int
	clock  func() time.Duration
	recvAt []time.Duration // by message index; zero = not received
	maxSeq []uint64        // by topic
	reord  int
	bad    int
	first  atomic.Int64 // first delivery time
	got    atomic.Int64
	gotBy  []atomic.Int64 // by topic
	kick   chan struct{}  // closed-loop wakeup, capacity one
}

func newReceiver(b book, pat *pattern, size int, clock func() time.Duration) *receiver {
	return &receiver{
		book: b, pat: pat, size: size, clock: clock,
		recvAt: make([]time.Duration, b.total),
		maxSeq: make([]uint64, len(b.base)),
		gotBy:  make([]atomic.Int64, len(b.base)),
		kick:   make(chan struct{}, 1),
	}
}

func (r *receiver) onDeliver(d client.Delivery) {
	now := r.clock()
	m := d.Msg
	idx, ok := r.book.index(m.Topic, m.Seq)
	switch {
	case !ok || !r.pat.verify(m.Payload, r.size, m.Topic, m.Seq):
		r.bad++
	case r.recvAt[idx] != 0:
		r.bad++ // a second copy got past the subscriber's dedup
	default:
		r.recvAt[idx] = now
		if m.Seq < r.maxSeq[m.Topic] {
			r.reord++
		} else {
			r.maxSeq[m.Topic] = m.Seq
		}
		r.first.CompareAndSwap(0, int64(now))
		r.got.Add(1)
		r.gotBy[m.Topic].Add(1)
	}
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// drain waits until want deliveries arrived, or until none arrived for
// idle, bounded by limit.
func (r *receiver) drain(want int64, idle, limit time.Duration) {
	end := time.Now().Add(limit)
	last, lastAt := r.got.Load(), time.Now()
	for {
		n := r.got.Load()
		now := time.Now()
		if n >= want || now.After(end) {
			return
		}
		if n != last {
			last, lastAt = n, now
		} else if now.Sub(lastAt) > idle {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// phaseSpec is one phase of a workload.
type phaseSpec struct {
	name     string
	light    bool // the light load; false: the heavy load
	measure  time.Duration
	traced   bool // install the tracer
	counters bool // snapshot the public counters around the phase
}

// openSpec is one open-loop phase over a Table 2 mix.
type openSpec struct {
	phaseSpec
	mix         int // topics, spec.NewWorkload size
	gateway     bool
	stopOnEvict bool // a ladder probe: stop at the capacity cliff
}

// openLoop paces the mix's schedule open loop from one publisher
// connection to one subscriber connection and measures due → delivery.
func (r *runner) openLoop(ps openSpec) (*phaseOut, error) {
	w, err := spec.NewWorkload(ps.mix)
	if err != nil {
		return nil, err
	}
	s := newSchedule(w.Topics, r.seed^uint64(ps.mix)<<32, openWarm+ps.measure, r.pat)
	out := &phaseOut{name: ps.name, window: ps.measure}
	rc := newReceiver(s.book, r.pat, s.psize, r.clock)
	pubStart := make([]time.Duration, s.book.total)
	call := make([]time.Duration, s.book.total)
	var tb *traceBuf
	// The gateway fronts a single Primary: gateway, pair and clients at
	// the heavy rate would saturate a 2-CPU host and measure the scheduler.
	opts := deployOpts{backup: !ps.gateway, gateway: ps.gateway, topics: w.Topics, publishers: 1,
		subscribe: true, onDeliver: rc.onDeliver}
	if ps.traced {
		tb = newTraceBuf(8*s.book.total + 1024)
		opts.tracer = tb.note
	}

	begin := r.clock()
	d, err := r.deploy(opts)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	pub := d.pubs[0]
	var c0 counters
	if ps.counters {
		if c0, err = d.snapshot(r.clock()); err != nil {
			return nil, err
		}
	}
	cpu0 := processCPU()
	queuedMax := 0
	pace := newPacer()
	defer pace.stop()
	t0 := r.clock()
	published := 0
	for i, sl := range s.slots {
		due := t0 + sl.due
		now := r.clock()
		if due > now {
			pace.sleep(due - now)
			now = r.clock()
		}
		idx, _ := s.book.index(sl.topic, sl.seq)
		pubStart[idx] = now
		seq, err := pub.Publish(sl.topic, s.payload(idx))
		call[idx] = r.clock() - now
		if err != nil {
			return nil, fmt.Errorf("%s: publish: %w", ps.name, err)
		}
		if seq != sl.seq {
			return nil, fmt.Errorf("%s: topic %d published as seq %d, scheduled %d", ps.name, sl.topic, seq, sl.seq)
		}
		published++
		if i&255 == 255 {
			if q := d.egressQueued(); q > queuedMax {
				queuedMax = q
			}
			if ps.stopOnEvict && d.evictions() > 0 {
				out.evicted = true
				break
			}
		}
	}
	rc.drain(int64(published), 300*time.Millisecond, 2*time.Second)
	out.cpu = processCPU() - cpu0
	out.evicted = out.evicted || d.evictions() > 0
	out.kernel = d.primary.EgressStats().KernelSubmit
	if d.promoted() {
		out.fail("the Backup promoted itself during the run (false failure detection)")
	}
	if ps.counters {
		c1, err := d.snapshot(r.clock())
		if err != nil {
			return nil, err
		}
		out.layers = layerDeltas(c0, c1, queuedMax)
	}
	d.stop() // clients first: after this every receive callback has run
	if f := rc.first.Load(); f > 0 {
		out.setup = time.Duration(f) - begin
	}
	if rc.bad > 0 {
		out.fail("%d deliveries failed payload verification or duplicated a message", rc.bad)
	}
	out.reorders = rc.reord
	out.delivered = int(rc.got.Load())

	// Measured window, per-topic loss runs against Li.
	lo, hi := openWarm, openWarm+ps.measure
	for ti, t := range w.Topics {
		run, worst := 0, 0
		for k := 0; k < s.book.count[ti]; k++ {
			idx := s.book.base[ti] + k
			due := s.dueOf[idx]
			if pubStart[idx] == 0 {
				break // not published: a probe stopped at the cliff
			}
			got := rc.recvAt[idx]
			if due >= lo && due < hi {
				out.attempted++
				out.genLate = append(out.genLate, pubStart[idx]-(t0+due))
				out.pubCall = append(out.pubCall, call[idx])
				if got == 0 {
					out.lost++
				} else {
					out.lat = append(out.lat, got-(t0+due))
					out.latAt = append(out.latAt, due)
					out.bytes += int64(s.psize)
				}
			}
			if got == 0 {
				run++
				worst = max(worst, run)
			} else {
				run = 0
			}
		}
		if !t.BestEffort() && worst > t.LossTolerance {
			out.fail("topic %d lost %d consecutive messages (Li=%d)", t.ID, worst, t.LossTolerance)
		}
	}
	if tb != nil {
		out.traceLost = tb.lost.Load()
		st, pairs := pairSpans(tb.events(), s.book)
		out.pairs = pairs
		due := make([]time.Duration, len(s.dueOf))
		for i, d := range s.dueOf {
			due[i] = t0 + d
		}
		sp := collectSpans(st, due, pubStart, rc.recvAt, nil, func(i int) bool {
			return s.dueOf[i] >= lo && s.dueOf[i] < hi
		})
		out.spans = &sp
	}
	return out, nil
}

// bulkTopics are four best-effort topics carrying 64 KiB payloads.
const bulkPayload = 64 << 10

func bulkTopics() []spec.Topic {
	ts := make([]spec.Topic, 4)
	for i := range ts {
		ts[i] = spec.Topic{ID: spec.TopicID(i), Category: -1, Period: 20 * time.Millisecond,
			Deadline: time.Second, LossTolerance: spec.LossUnbounded, Destination: spec.DestEdge,
			PayloadSize: bulkPayload}
	}
	return ts
}

// bulk keeps window messages in flight on a lossless Primary with no
// Backup, round-robin over the bulk topics, and measures publish →
// delivery. The window stays below the per-topic Message Buffer (16) and
// the egress ring, so the loop measures capacity rather than loss.
func (r *runner) bulk(cs phaseSpec, window int) (*phaseOut, error) {
	topics := bulkTopics()
	perTopic := int(40000*(closedWarm+cs.measure).Seconds())/len(topics) + window
	counts := make([]int, len(topics))
	for i := range counts {
		counts[i] = perTopic
	}
	b := newBook(counts)
	out := &phaseOut{name: cs.name, window: cs.measure}
	rc := newReceiver(b, r.pat, bulkPayload, r.clock)
	pubStart := make([]time.Duration, b.total)
	call := make([]time.Duration, b.total)
	var tb *traceBuf
	opts := deployOpts{topics: topics, publishers: 1, subscribe: true, lossless: true, onDeliver: rc.onDeliver}
	if cs.traced {
		// Five events per message (no replication), at up to 15k msg/s.
		tb = newTraceBuf(5*int(15000*(closedWarm+cs.measure).Seconds()) + 1024)
		opts.tracer = tb.note
	}
	buf := make([]byte, bulkPayload)

	begin := r.clock()
	d, err := r.deploy(opts)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	pub := d.pubs[0]
	var c0 counters
	if cs.counters {
		if c0, err = d.snapshot(r.clock()); err != nil {
			return nil, err
		}
	}
	cpu0 := processCPU()
	queuedMax := 0
	t0 := r.clock()
	end := t0 + closedWarm + cs.measure
	stall := time.NewTimer(time.Hour)
	defer stall.Stop()
	// The window also holds per topic: a topic whose dispatches lag must
	// not pile up past its Message Buffer while the others keep flowing.
	topicWindow := int64(max(1, window/len(topics)))
	sentBy := make([]int64, len(topics))
	sent, next := 0, 0
	for r.clock() < end {
		t := -1
		if int64(sent)-rc.got.Load() < int64(window) {
			for k := range topics {
				if c := (next + k) % len(topics); sentBy[c]-rc.gotBy[c].Load() < topicWindow {
					t = c
					break
				}
			}
		}
		if t < 0 {
			stall.Reset(5 * time.Second)
			select {
			case <-rc.kick:
			case <-stall.C:
				return nil, fmt.Errorf("%s: no delivery for 5s with %d in flight", cs.name, window)
			}
			stall.Stop()
			continue
		}
		next = t + 1
		topic := spec.TopicID(t)
		seq := uint64(sentBy[t] + 1)
		idx, ok := b.index(topic, seq)
		if !ok {
			break // the book is sized far above any plausible rate
		}
		r.pat.fill(buf, topic, seq)
		now := r.clock()
		pubStart[idx] = now
		got, err := pub.Publish(topic, buf)
		call[idx] = r.clock() - now
		if err != nil {
			return nil, fmt.Errorf("%s: publish: %w", cs.name, err)
		}
		if got != seq {
			return nil, fmt.Errorf("%s: topic %d published as seq %d, expected %d", cs.name, topic, got, seq)
		}
		sent++
		sentBy[t]++
		if sent&255 == 0 {
			queuedMax = max(queuedMax, d.egressQueued())
		}
	}
	rc.drain(int64(sent), 2*time.Second, 5*time.Second)
	out.cpu = processCPU() - cpu0
	out.kernel = d.primary.EgressStats().KernelSubmit
	out.evicted = d.evictions() > 0
	if missing := int64(sent) - rc.got.Load(); missing > 0 {
		out.fail("%d of %d messages published on a lossless path were never delivered", missing, sent)
	}
	if cs.counters {
		c1, err := d.snapshot(r.clock())
		if err != nil {
			return nil, err
		}
		out.layers = layerDeltas(c0, c1, queuedMax)
	}
	d.stop() // clients first: after this every receive callback has run
	if f := rc.first.Load(); f > 0 {
		out.setup = time.Duration(f) - begin
	}
	if rc.bad > 0 {
		out.fail("%d deliveries failed payload verification or duplicated a message", rc.bad)
	}
	out.reorders = rc.reord
	out.delivered = int(rc.got.Load())
	lo, hi := t0+closedWarm, end
	measured := func(i int) bool { return pubStart[i] >= lo && pubStart[i] < hi }
	for i := range pubStart {
		if pubStart[i] == 0 {
			if rc.recvAt[i] != 0 {
				out.fail("message index %d delivered but never published", i)
			}
			continue
		}
		if !measured(i) {
			continue
		}
		out.attempted++
		out.pubCall = append(out.pubCall, call[i])
		if rc.recvAt[i] == 0 {
			out.lost++
			continue
		}
		out.lat = append(out.lat, rc.recvAt[i]-pubStart[i])
		out.latAt = append(out.latAt, pubStart[i])
		out.bytes += bulkPayload
	}
	if tb != nil {
		out.traceLost = tb.lost.Load()
		st, pairs := pairSpans(tb.events(), b)
		out.pairs = pairs
		sp := collectSpans(st, nil, pubStart, rc.recvAt, nil, measured)
		out.spans = &sp
	}
	return out, nil
}

// durableTopics are one best-effort 16-byte topic per publisher.
func durableTopics(n int) []spec.Topic {
	ts := make([]spec.Topic, n)
	for i := range ts {
		ts[i] = spec.Topic{ID: spec.TopicID(i), Category: -1, Period: 20 * time.Millisecond,
			Deadline: time.Second, LossTolerance: spec.LossUnbounded, Destination: spec.DestEdge,
			PayloadSize: spec.PayloadSize}
	}
	return ts
}

// durableAck runs publishers closed loop against an ACK = durable Primary
// with the default group commit and no subscribers, measuring Publish call
// → durable ack. After the broker stops it replays the log and checks that
// every acked (topic, seq) is on disk.
func (r *runner) durableAck(cs phaseSpec, publishers int) (*phaseOut, error) {
	topics := durableTopics(publishers)
	// A topic's publisher waits for each ack, and the group commit holds a
	// record up to 2 ms, so a topic acks a few hundred messages a second;
	// 4000 a second leaves room for a faster disk.
	perTopic := int(4000 * (closedWarm + cs.measure).Seconds())
	counts := make([]int, publishers)
	for i := range counts {
		counts[i] = perTopic
	}
	b := newBook(counts)
	out := &phaseOut{name: cs.name, window: cs.measure}
	pubStart := make([]time.Duration, b.total)
	ackAt := make([]time.Duration, b.total)
	var tb *traceBuf
	opts := deployOpts{topics: topics, publishers: publishers, durable: true}
	if cs.traced {
		// Six events per message (durable, no replication), at up to 5k acks/s.
		tb = newTraceBuf(6*int(5000*(closedWarm+cs.measure).Seconds()) + 1024)
		opts.tracer = tb.note
	}

	begin := r.clock()
	d, err := r.deploy(opts)
	if err != nil {
		return nil, err
	}
	defer d.removeLog()
	defer d.stop()
	var c0 counters
	if cs.counters {
		if c0, err = d.snapshot(r.clock()); err != nil {
			return nil, err
		}
	}
	cpu0 := processCPU()
	t0 := r.clock()
	end := t0 + closedWarm + cs.measure
	var first atomic.Int64
	errs := make([]error, publishers)
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pub, topic := d.pubs[i], topics[i].ID
			payload := make([]byte, spec.PayloadSize)
			for seq := uint64(1); r.clock() < end; seq++ {
				idx, ok := b.index(topic, seq)
				if !ok {
					errs[i] = fmt.Errorf("topic %d acked more than the %d messages preallocated for it", topic, perTopic)
					return
				}
				r.pat.fill(payload, topic, seq)
				start := r.clock()
				pubStart[idx] = start
				got, err := pub.Publish(topic, payload)
				if err != nil {
					errs[i] = fmt.Errorf("publish topic %d seq %d: %w", topic, seq, err)
					return
				}
				if got != seq {
					errs[i] = fmt.Errorf("topic %d published as seq %d, expected %d", topic, got, seq)
					return
				}
				at := r.clock()
				ackAt[idx] = at
				first.CompareAndSwap(0, int64(at))
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("%s: %w", cs.name, err)
	}
	out.cpu = processCPU() - cpu0
	if cs.counters {
		c1, err := d.snapshot(r.clock())
		if err != nil {
			return nil, err
		}
		out.layers = layerDeltas(c0, c1, 0)
	}
	d.stop()
	out.setup = time.Duration(first.Load()) - begin

	lo, hi := t0+closedWarm, end
	measured := func(i int) bool { return pubStart[i] >= lo && pubStart[i] < hi }
	for i := range pubStart {
		if ackAt[i] != 0 {
			out.delivered++
		}
		if pubStart[i] == 0 || !measured(i) {
			continue
		}
		out.attempted++
		if ackAt[i] == 0 {
			out.lost++
			continue
		}
		out.lat = append(out.lat, ackAt[i]-pubStart[i])
		out.latAt = append(out.latAt, pubStart[i])
		out.pubCall = append(out.pubCall, ackAt[i]-pubStart[i])
		out.bytes += spec.PayloadSize
	}

	// ACK = durable: every acked message must replay from the log.
	replayStart := time.Now()
	log, rep, err := diskstore.OpenSegmented(d.logDir, diskstore.SegmentOptions{})
	out.replay = time.Since(replayStart)
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", cs.name, err)
	}
	if err := log.Close(); err != nil {
		return nil, fmt.Errorf("%s: close replayed log: %w", cs.name, err)
	}
	onDisk := make([]bool, b.total)
	for _, m := range rep.Messages {
		if idx, ok := b.index(m.Topic, m.Seq); ok {
			if r.pat.verify(m.Payload, spec.PayloadSize, m.Topic, m.Seq) {
				onDisk[idx] = true
			}
		}
	}
	missing := 0
	for i := range ackAt {
		if ackAt[i] != 0 && !onDisk[i] {
			missing++
		}
	}
	if missing > 0 {
		out.fail("%d acked messages missing or corrupt on log replay", missing)
	}
	if tb != nil {
		out.traceLost = tb.lost.Load()
		st, pairs := pairSpans(tb.events(), b)
		out.pairs = pairs
		sp := collectSpans(st, nil, pubStart, nil, ackAt, measured)
		out.spans = &sp
	}
	return out, nil
}
