package main

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/spec"
)

// Table 2 mix sizes. The light and heavy rates are the bottom rungs of
// the ladder that finds capacity.max_rate_msgs_s, which climbs in
// 750-topic steps (7,500 msg/s) to the paper's 7525-topic workload. The
// gated rates stay far below the capacity cliff: on a shared 2-CPU host
// the process's CPU cost per message drifts by a quarter between
// identical runs, and near saturation queueing turns that drift into two-
// to fourfold swings of latency.
const (
	lightMix = 775  // 7,910 msg/s
	heavyMix = 1525 // 15,410 msg/s, the paper's smallest workload
)

var ladderMixes = []int{775, 1525, 2275, 3025, 3775, 4525, 5275, 6025, 6775, 7525}

// latencyLimit is the tail bound a ladder rung must meet: the tightest
// Table 2 deadline Di.
const latencyLimit = 50 * time.Millisecond

// openWarm lets every topic publish at least once (the slowest Table 2
// period is 500 ms) before the measured window opens.
const openWarm = 600 * time.Millisecond

// closedWarm precedes the measured window of closed-loop phases.
const closedWarm = 300 * time.Millisecond

// setupSamples is how many bring-ups setup_s is the median of. A
// bring-up takes a few milliseconds and varies by a factor of two within a
// run, and the host's speed drifts over tens of seconds, so the samples
// are many and spread over the whole run: an equal share precedes each
// phase.
const setupSamples = 60

// bulkWindow is the heavy bulk phase's messages in flight: 8 per topic,
// half the per-topic Message Buffer.
const bulkWindow = 32

// workload is one of the benchmark's workloads: the deployment whose
// bring-up setup_s times, one light or heavy phase, and the capacity
// figure of a traced run.
type workload struct {
	reps     int     // light and heavy phases an untraced run alternates
	share    float64 // share of --seconds spent in measured windows
	setup    func() (deployOpts, error)
	phase    func(r *runner, ps phaseSpec) (*phaseOut, error)
	capacity func(r *runner, light, heavy *phaseOut, measure time.Duration, record func(*phaseOut)) (rate float64, note string, err error)
}

// durableLight and durableHeavy are the closed-loop publishers of the
// durable-ack phases, each on its own connection. A session holds its next
// publish until the fsync covering the last one, so a group commit carries
// one record per connection. With one or two connections the process idled
// 85% of the time and its CPU per ack was mostly the price of waking idle
// CPUs, which the host's other tenants moved by a third between runs; at
// four and eight, commits carry several records and the CPU per ack is
// the durable path's own work.
const (
	durableLight = 4
	durableHeavy = 8
)

// reps is how many light and heavy phases an untraced run alternates;
// each p50 is the median over them, so one phase caught by a noisy
// neighbour or a long GC does not move the run's figure. Durable acks are
// slower, so durable-ack runs fewer, longer phases.
const (
	reps        = 5
	durableReps = 3
)

var workloads = map[string]workload{
	// The paper's Table 2 mix on a Primary+Backup pair, paced open loop.
	"edge-pair": paced(false),
	// The same schedules through a gateway with thin clients.
	"gateway-paced": paced(true),
	// 64 KiB payloads closed loop on a lossless Primary.
	"bulk": {
		reps: reps, share: 0.8,
		setup: func() (deployOpts, error) {
			return deployOpts{topics: bulkTopics(), publishers: 1, subscribe: true, lossless: true}, nil
		},
		phase: func(r *runner, ps phaseSpec) (*phaseOut, error) {
			if ps.light {
				return r.bulk(ps, 1)
			}
			return r.bulk(ps, bulkWindow)
		},
		capacity: completions,
	},
	// ACK = durable, closed loop, no subscribers.
	"durable-ack": {
		reps: durableReps, share: 0.8,
		setup: func() (deployOpts, error) {
			return deployOpts{topics: durableTopics(1), publishers: 1, durable: true}, nil
		},
		phase: func(r *runner, ps phaseSpec) (*phaseOut, error) {
			if ps.light {
				return r.durableAck(ps, durableLight)
			}
			return r.durableAck(ps, durableHeavy)
		},
		capacity: completions,
	},
}

// paced is an open-loop workload over the Table 2 mix at the light and
// heavy rates, directly on a Primary+Backup pair or through a gateway in
// front of one Primary; its capacity is found by the ladder.
func paced(gw bool) workload {
	return workload{
		reps: reps, share: 0.6,
		setup: func() (deployOpts, error) {
			w, err := spec.NewWorkload(lightMix)
			if err != nil {
				return deployOpts{}, err
			}
			return deployOpts{backup: !gw, gateway: gw, topics: w.Topics, publishers: 1, subscribe: true}, nil
		},
		phase: func(r *runner, ps phaseSpec) (*phaseOut, error) {
			mix := heavyMix
			if ps.light {
				mix = lightMix
			}
			return r.openLoop(openSpec{phaseSpec: ps, mix: mix, gateway: gw})
		},
		capacity: func(r *runner, light, heavy *phaseOut, measure time.Duration, record func(*phaseOut)) (float64, string, error) {
			// Bisect the rungs between the highest known pass and the
			// lowest known failure, taking the pass rule as monotone in
			// the offered rate.
			lo, hi := indexOf(ladderMixes, heavyMix), len(ladderMixes)
			switch {
			case !rungOK(heavy) && rungOK(light):
				lo, hi = indexOf(ladderMixes, lightMix), indexOf(ladderMixes, heavyMix)
			case !rungOK(heavy):
				lo, hi = -1, indexOf(ladderMixes, lightMix)
			}
			best, err := bisect(lo, hi, func(i int) (bool, error) {
				probe, err := r.openLoop(openSpec{phaseSpec: phaseSpec{name: "ladder-" + strconv.Itoa(ladderMixes[i]), measure: measure},
					mix: ladderMixes[i], gateway: gw, stopOnEvict: true})
				if err != nil {
					return false, err
				}
				record(probe)
				return rungOK(probe), nil
			})
			if err != nil {
				return 0, "", err
			}
			rate := 0.0
			if best >= 0 {
				w, _ := spec.NewWorkload(ladderMixes[best])
				rate = w.MessageRate()
			}
			return rate, "highest ladder rung meeting p99 ≤ 50ms in every quarter, Li, no eviction", nil
		},
	}
}

// completions is a closed-loop workload's capacity: its heavy phase's
// completions per second.
func completions(_ *runner, _, heavy *phaseOut, measure time.Duration, _ func(*phaseOut)) (float64, string, error) {
	return float64(len(heavy.lat)) / measure.Seconds(), "completions per second in the heavy phase", nil
}

// bringUp deploys o, publishes one message on its first topic, and returns
// the time from the first constructor call to that message's delivery (or
// durable ack).
func (r *runner) bringUp(o deployOpts) (time.Duration, error) {
	t := o.topics[0]
	done := make(chan time.Duration, 1)
	if o.subscribe {
		o.onDeliver = func(client.Delivery) {
			select {
			case done <- r.clock():
			default:
			}
		}
	}
	payload := make([]byte, t.PayloadSize)
	r.pat.fill(payload, t.ID, 1)
	begin := r.clock()
	d, err := r.deploy(o)
	if err != nil {
		return 0, err
	}
	defer d.removeLog()
	defer d.stop()
	if _, err := d.pubs[0].Publish(t.ID, payload); err != nil {
		return 0, fmt.Errorf("bring-up publish: %w", err)
	}
	if !o.subscribe {
		return r.clock() - begin, nil // a durable Publish returns on its ack
	}
	select {
	case at := <-done:
		return at - begin, nil
	case <-time.After(5 * time.Second):
		return 0, errors.New("bring-up: first delivery missing after 5s")
	}
}

// bringUps appends the times of k bring-ups of o to xs, each started on a
// freshly collected heap so that earlier garbage is not charged to it.
func (r *runner) bringUps(o deployOpts, k int, xs []float64) ([]float64, error) {
	for range k {
		runtime.GC()
		d, err := r.bringUp(o)
		if err != nil {
			return nil, err
		}
		xs = append(xs, d.Seconds())
	}
	return xs, nil
}

// run measures workload w for s seconds. An untraced run alternates
// w.reps light and heavy phases, each preceded by bring-ups that time
// setup_s, and reports the end-to-end metrics; a traced run measures one
// phase of each, then a traced light phase and the capacity figure, and
// reports the per-layer metrics.
func (r *runner) run(w workload, s time.Duration, traced bool) (*report, error) {
	rep := &report{}
	record := func(p *phaseOut) {
		rep.phases = append(rep.phases, p)
		rep.kernel = rep.kernel || p.kernel
	}
	phase := func(ps phaseSpec) (*phaseOut, error) {
		out, err := w.phase(r, ps)
		if err == nil {
			record(out)
		}
		return out, err
	}
	opts, err := w.setup()
	if err != nil {
		return nil, err
	}
	per := time.Duration(w.share * float64(s) / float64(2*w.reps))
	n, k := w.reps, setupSamples/(2*w.reps) // phase pairs; bring-ups before each phase
	if traced {
		n, k = 1, 0
	} else {
		// One cold bring-up warms code paths and the heap; it is not counted.
		if _, err := r.bringUp(opts); err != nil {
			return nil, err
		}
	}
	var setups []float64
	var lights, heavies []*phaseOut
	for i := 1; i <= n; i++ {
		if setups, err = r.bringUps(opts, k, setups); err != nil {
			return nil, err
		}
		l, err := phase(phaseSpec{name: "light-" + strconv.Itoa(i), light: true, measure: per})
		if err != nil {
			return nil, err
		}
		if setups, err = r.bringUps(opts, k, setups); err != nil {
			return nil, err
		}
		h, err := phase(phaseSpec{name: "heavy-" + strconv.Itoa(i), measure: per, counters: traced})
		if err != nil {
			return nil, err
		}
		lights, heavies = append(lights, l), append(heavies, h)
	}
	rep.collect(append(lights, heavies...)...)
	if !traced {
		rep.e2eMetrics(median(setups), len(setups), lights, heavies)
		return rep, nil
	}
	tr, err := phase(phaseSpec{name: "light-traced", light: true, measure: per, traced: true})
	if err != nil {
		return nil, err
	}
	rep.problems = append(rep.problems, tr.problems...)
	rep.layerMetrics(lights[0], heavies[0], tr)
	rate, note, err := w.capacity(r, lights[0], heavies[0], per, record)
	if err != nil {
		return nil, err
	}
	rep.add("capacity.max_rate_msgs_s", "msg/s", rate, len(heavies[0].lat), note)
	return rep, nil
}

// collect folds the measured phases' correctness checks and counts into
// the report.
func (rep *report) collect(phases ...*phaseOut) {
	for _, p := range phases {
		rep.problems = append(rep.problems, p.problems...)
		if p.evicted {
			rep.problems = append(rep.problems, p.name+": subscriber evicted")
		}
		rep.attempted += p.attempted
		rep.failed += p.lost
	}
}

// rungOK is the ladder's pass rule: no eviction, no topic over Li, and the
// p99 of every quarter of the measured window within the latency limit —
// a backlog that grows shows as a rising quarter before it shows in the
// whole-window p99.
func rungOK(p *phaseOut) bool {
	if p.evicted || len(p.problems) > 0 || len(p.lat) == 0 {
		return false
	}
	quarters := windowed(p.latAt, p.lat, p.window/4+1, 0.99)
	if len(quarters) < 3 {
		return false // too few samples to judge the tail
	}
	for _, q := range quarters {
		if time.Duration(q) > latencyLimit {
			return false
		}
	}
	return true
}

// bisect returns the highest passing rung strictly between lo and hi,
// given that rung lo passes (or lo is -1) and rung hi fails (or is one
// past the top), assuming pass/fail is monotone in the rung. It returns lo
// when every probed rung fails.
func bisect(lo, hi int, probe func(int) (bool, error)) (int, error) {
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := probe(mid)
		if err != nil {
			return -1, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
