package main

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/spec"
)

func TestScheduleReproducesTable2Rates(t *testing.T) {
	for _, c := range []struct {
		mix  int
		rate float64
	}{{lightMix, 7910}, {heavyMix, 15410}, {3025, 30410}} {
		w, err := spec.NewWorkload(c.mix)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.MessageRate(); got != c.rate {
			t.Fatalf("mix %d: Table 2 rate %v, want %v", c.mix, got, c.rate)
		}
		span := 10 * time.Second
		s := newSchedule(w.Topics, 42, span, newPattern(42, 64))
		// Each topic contributes span/Ti messages, give or take the one its
		// phase cuts off.
		if got := s.rate(); math.Abs(got-c.rate) > float64(c.mix)/span.Seconds() {
			t.Errorf("mix %d: schedule offers %.1f msg/s, want %v ± %d/%v", c.mix, got, c.rate, c.mix, span)
		}
		if s.slots[0].due != 0 {
			t.Errorf("mix %d: first publish due at %v, want 0", c.mix, s.slots[0].due)
		}
		if !slices.IsSortedFunc(s.slots, func(a, b slot) int { return int(a.due - b.due) }) {
			t.Errorf("mix %d: slots not in due order", c.mix)
		}
		// Per topic: on the tick grid, consecutive seqs, paced exactly Ti apart.
		next := map[spec.TopicID]uint64{}
		last := map[spec.TopicID]time.Duration{}
		for _, sl := range s.slots {
			if sl.due%tick != 0 {
				t.Fatalf("mix %d: topic %d seq %d due off the tick grid at %v", c.mix, sl.topic, sl.seq, sl.due)
			}
			if sl.seq != next[sl.topic]+1 {
				t.Fatalf("mix %d: topic %d seq %d follows %d", c.mix, sl.topic, sl.seq, next[sl.topic])
			}
			if sl.seq > 1 && sl.due-last[sl.topic] != w.Topics[sl.topic].Period {
				t.Fatalf("mix %d: topic %d paced %v apart, period %v", c.mix, sl.topic, sl.due-last[sl.topic], w.Topics[sl.topic].Period)
			}
			next[sl.topic], last[sl.topic] = sl.seq, sl.due
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w, _ := spec.NewWorkload(1525)
	pat := newPattern(7, 64)
	a := newSchedule(w.Topics, 7, time.Second, pat)
	b := newSchedule(w.Topics, 7, time.Second, pat)
	c := newSchedule(w.Topics, 8, time.Second, pat)
	if !slices.Equal(a.slots, b.slots) || !slices.Equal(a.arena, b.arena) {
		t.Error("same seed gave different inputs")
	}
	if slices.Equal(a.slots, c.slots) {
		t.Error("different seeds gave identical schedules")
	}
}

func TestPatternVerify(t *testing.T) {
	p := newPattern(99, 64<<10)
	for _, n := range []int{16, 64 << 10} {
		b := make([]byte, n)
		p.fill(b, 3, 17)
		if !p.verify(b, n, 3, 17) {
			t.Fatalf("size %d: payload does not verify", n)
		}
		if p.verify(b, n, 3, 18) || p.verify(b, n, 4, 17) {
			t.Errorf("size %d: payload verifies under the wrong (topic, seq)", n)
		}
		if p.verify(b[:n-1], n, 3, 17) {
			t.Errorf("size %d: truncated payload verifies", n)
		}
		b[n-1] ^= 1
		if p.verify(b, n, 3, 17) {
			t.Errorf("size %d: corrupted payload verifies", n)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]time.Duration, 100)
	for i := range xs {
		xs[i] = time.Duration(100 - i) // reversed: newDist must sort
	}
	d := newDist(xs)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
	if got := newDist(nil).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // exactly ten beyond
		{999, 0.99, false}, // nine beyond
		{10000, 0.999, true},
		{9999, 0.999, false},
		{20, 0.5, true},
	} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v (beyond=%d)", c.n, c.q, got, c.want, beyond(c.n, c.q))
		}
	}
}

func TestWindowedTails(t *testing.T) {
	var due, lat []time.Duration
	for i := 0; i < 8000; i++ {
		due = append(due, time.Duration(i)*time.Millisecond)
		l := time.Duration(i%100) * time.Microsecond
		if i >= 6000 {
			l += time.Second // a backlog in the last quarter
		}
		lat = append(lat, l)
	}
	ws := windowed(due, lat, time.Second, 0.99)
	if len(ws) != 8 {
		t.Fatalf("got %d windows, want 8", len(ws))
	}
	if ws[0] != float64(98*time.Microsecond) || ws[7] < float64(time.Second) {
		t.Errorf("window p99s %v", ws)
	}
	p := &phaseOut{lat: lat, latAt: due, window: 8 * time.Second}
	if rungOK(p) {
		t.Error("a rung whose last quarter blows the latency limit passed")
	}
	p.lat, p.latAt, p.window = lat[:6000], due[:6000], 6*time.Second
	if !rungOK(p) {
		t.Error("a steady rung failed")
	}
	p.evicted = true
	if rungOK(p) {
		t.Error("a rung that evicted its subscriber passed")
	}
}

func TestBisectLadder(t *testing.T) {
	n := len(ladderMixes)
	heavy := indexOf(ladderMixes, heavyMix)
	for top := -1; top < n; top++ { // rungs 0..top pass
		pass := func(i int) bool { return i <= top }
		lo, hi := heavy, n
		switch {
		case !pass(heavy) && pass(0):
			lo, hi = 0, heavy
		case !pass(heavy):
			lo, hi = -1, 0
		}
		probes := 0
		got, err := bisect(lo, hi, func(i int) (bool, error) {
			probes++
			if i <= lo || i >= hi {
				t.Fatalf("top=%d: probed rung %d outside (%d, %d)", top, i, lo, hi)
			}
			return pass(i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != top {
			t.Errorf("top=%d: bisect found %d", top, got)
		}
		if limit := int(math.Ceil(math.Log2(float64(hi - lo)))); probes > limit {
			t.Errorf("top=%d: %d probes, want ≤ %d", top, probes, limit)
		}
	}
	boom := errors.New("probe failed")
	if _, err := bisect(2, 9, func(int) (bool, error) { return false, boom }); !errors.Is(err, boom) {
		t.Errorf("probe error not returned: %v", err)
	}
}

// ev builds a trace event for topic 0.
func ev(stage obsv.Stage, seq uint64, at time.Duration) obsv.TraceEvent {
	return obsv.TraceEvent{Stage: stage, Topic: 0, Seq: seq, At: at}
}

func TestPairSpans(t *testing.T) {
	b := newBook([]int{4})
	evs := []obsv.TraceEvent{
		// seq 1: one worker replicates, then dispatches — exact pairing.
		ev(obsv.StagePublish, 1, 100), ev(obsv.StageEnqueue, 1, 100),
		ev(obsv.StagePop, 1, 110), ev(obsv.StageReplicate, 1, 111), ev(obsv.StageAck, 1, 115),
		ev(obsv.StagePop, 1, 120), ev(obsv.StageDispatch, 1, 121), ev(obsv.StageAck, 1, 130),
		// seq 2: two workers hold both jobs; Dispatch claims the Pop
		// closest before it, the first Ack closes the job opened first.
		ev(obsv.StagePublish, 2, 200),
		ev(obsv.StagePop, 2, 210), ev(obsv.StagePop, 2, 212),
		ev(obsv.StageDispatch, 2, 213), ev(obsv.StageReplicate, 2, 214),
		ev(obsv.StageAck, 2, 216), ev(obsv.StageAck, 2, 218),
		// seq 3: a replica Pop with no Backup link fires no Replicate
		// event; its Ack retires the Pop, and the dispatch pairs cleanly.
		ev(obsv.StagePublish, 3, 300),
		ev(obsv.StagePop, 3, 305), ev(obsv.StageAck, 3, 306),
		ev(obsv.StagePop, 3, 307), ev(obsv.StageDispatch, 3, 308), ev(obsv.StageAck, 3, 309),
		// seq 4: durable mode.
		ev(obsv.StagePublish, 4, 400), ev(obsv.StageDurable, 4, 450),
		// Outside the book.
		ev(obsv.StagePop, 9, 1), {Stage: obsv.StageAck, Topic: 5, Seq: 1, At: 1},
	}
	st, ps := pairSpans(evs, b)
	want := []stamps{
		{publish: 100, repPop: 110, repAck: 115, dispPop: 120, dispAck: 130},
		{publish: 200, dispPop: 212, dispAck: 216, repPop: 210, repAck: 218},
		{publish: 300, dispPop: 307, dispAck: 309},
		{publish: 400, durable: 450},
	}
	for i, w := range want {
		if st[i] != w {
			t.Errorf("seq %d: stamps %+v, want %+v", i+1, st[i], w)
		}
	}
	if ps.ambiguous != 2 || ps.orphans != 2 {
		t.Errorf("pair stats %+v, want 2 ambiguous, 2 orphans", ps)
	}

	due := []time.Duration{85, 190, 280, 0}
	pubStart := []time.Duration{90, 190, 290, 395}
	recvAt := []time.Duration{140, 230, 0, 0}
	ackAt := []time.Duration{0, 0, 0, 460}
	sp := collectSpans(st, due, pubStart, recvAt, ackAt, func(int) bool { return true })
	check := func(name string, got []time.Duration, want ...time.Duration) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s spans %v, want %v", name, got, want)
		}
	}
	check("publish wait", sp.wait, 5, 0, 10)
	check("ingress", sp.ingress, 10, 10, 10, 5)
	check("queue", sp.queue, 20, 12, 7)
	check("dispatch", sp.dispatch, 10, 4, 2)
	check("egress", sp.egress, 10, 14)
	check("replicate", sp.replicate, 5, 8)
	check("durable", sp.durable, 50)
	check("ack return", sp.ackReturn, 10)
}

func TestTraceBufKeepsCapacity(t *testing.T) {
	tb := newTraceBuf(2)
	for i := 0; i < 5; i++ {
		tb.note(ev(obsv.StagePop, uint64(i+1), time.Duration(i)))
	}
	if got := len(tb.events()); got != 2 {
		t.Errorf("kept %d events, want 2", got)
	}
	if got := tb.lost.Load(); got != 3 {
		t.Errorf("lost %d events, want 3", got)
	}
}
