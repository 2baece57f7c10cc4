package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// p50 and p99 are a phase's nearest-rank latency quantiles.
func (p *phaseOut) p50() time.Duration {
	return newDist(append([]time.Duration(nil), p.lat...)).quantile(0.5)
}

func (p *phaseOut) p99() time.Duration {
	return newDist(append([]time.Duration(nil), p.lat...)).quantile(0.99)
}

// cpuPerMsg is the phase's process CPU per delivered message or ack, in
// microseconds.
func (p *phaseOut) cpuPerMsg() float64 { return us(p.cpu) / float64(max(p.delivered, 1)) }

// throughput is the phase's payload bytes completed per second of its
// measured window, in MB/s.
func (p *phaseOut) throughput() float64 { return float64(p.bytes) / p.window.Seconds() / 1e6 }

// latency prints the p50 and p99 of repeated phases at one rate and
// returns the p50 in microseconds with its sample count. The p50 is the
// median over the phases of each phase's p50; the p99 is taken over the
// phases' samples pooled, because one phase of durable acks on a slow
// host holds too few samples to put ten beyond its p99. The pooled p99
// must have ten samples beyond it.
func (rep *report) latency(tag string, phases []*phaseOut, what string) (p50 float64, n int) {
	var p50s []float64
	var pooled []time.Duration
	for _, p := range phases {
		p50s = append(p50s, us(p.p50()))
		pooled = append(pooled, p.lat...)
	}
	all := newDist(pooled)
	if !tailOK(len(all), 0.99) {
		rep.problems = append(rep.problems, fmt.Sprintf("latency %s: %d samples cannot support p99", tag, len(all)))
	}
	fmt.Printf("info latency_p50_us.%s=%.1f us (median of %d phases' p50) latency_p99_us.%s=%.1f us (pooled), n=%d; %s\n",
		tag, median(p50s), len(phases), tag, us(all.quantile(0.99)), len(all), what)
	return median(p50s), len(all)
}

// e2eMetrics reports the end-to-end metrics of an untraced run.
func (rep *report) e2eMetrics(setup float64, setups int, lights, heavies []*phaseOut) {
	rep.add("setup_s", "s", setup, setups, "median bring-up → first delivery/ack over separate deployments spread over the run")
	what := "due → delivered (open loop) / publish → delivered or acked (closed loop)"
	p50, n := rep.latency("light", lights, what)
	rep.add("latency_p50_us.light", "us", p50, n, "median over light phases of the phase's p50, "+what)
	rep.latency("heavy", heavies, what)
	var tput []float64
	n = 0
	for _, p := range heavies {
		tput = append(tput, float64(p.bytes)/p.window.Seconds()/1e6)
		n += len(p.lat)
	}
	rep.add("throughput_mb_s", "MB/s", median(tput), n, "median over heavy phases of payload bytes completed per second")
	var cpu time.Duration
	done := 0
	for _, p := range append(lights, heavies...) {
		cpu += p.cpu
		done += p.delivered
	}
	rep.add("cpu_us_per_msg", "us", us(cpu)/float64(max(done, 1)), done,
		"process user+sys CPU per delivered message or ack, all phases")
	rep.add("rss_mb", "MiB", peakRSSMiB(), 1, "peak resident set of the whole process")
	rep.info(append(lights, heavies...))
}

// info prints the loss and reorder shares, which are correctness figures
// (normally zero) rather than gated metrics.
func (rep *report) info(phases []*phaseOut) {
	lost, att, reord, done := 0, 0, 0, 0
	for _, p := range phases {
		lost, att, reord, done = lost+p.lost, att+p.attempted, reord+p.reorders, done+p.delivered
	}
	fmt.Printf("info loss_ratio=%.6f (%d of %d) reorder_ratio=%.6f (%d of %d deliveries)\n",
		ratio(float64(lost), float64(att)), lost, att, ratio(float64(reord), float64(done)), reord, done)
}

// layerMetrics reports the per-layer metrics of a traced run: the
// benchmark's own timers from the untraced light phase, counter deltas over
// the heavy phase, and spans from the traced light phase.
func (rep *report) layerMetrics(light, heavy, tr *phaseOut) {
	call := newDist(append([]time.Duration(nil), light.pubCall...))
	rep.add("client.publish_call_p50_us", "us", us(call.quantile(0.5)), len(call), "Publish call, light")
	rep.add("client.publish_call_p99_us", "us", us(call.quantile(0.99)), len(call), "Publish call, light")
	late := newDist(append([]time.Duration(nil), heavy.genLate...))
	rep.add("client.gen_late_p50_us", "us", us(late.quantile(0.5)), len(late), "generator start − due, heavy (open loop only)")
	rep.add("client.gen_late_p99_us", "us", us(late.quantile(0.99)), len(late), "generator start − due, heavy (open loop only)")
	rep.add("client.reorder_ratio", "ratio",
		ratio(float64(light.reorders+heavy.reorders), float64(light.delivered+heavy.delivered)),
		light.delivered+heavy.delivered, "deliveries below the topic's highest seq seen, light+heavy")

	for _, p := range []*phaseOut{light, heavy} {
		tag := strings.TrimRight(p.name, "-0123456789") // "light-1" → "light"
		rep.add("e2e.latency_p50_us."+tag, "us", us(p.p50()), len(p.lat), "one untraced phase's p50")
		note := "one untraced phase's p99"
		if !tailOK(len(p.lat), 0.99) {
			note += " (fewer than ten samples beyond it: indicative only)"
		}
		rep.add("e2e.latency_p99_us."+tag, "us", us(p.p99()), len(p.lat), note)
	}

	sp := tr.spans
	p50 := func(xs []time.Duration) float64 { return us(newDist(xs).quantile(0.5)) }
	p99 := func(xs []time.Duration) float64 { return us(newDist(xs).quantile(0.99)) }
	rep.add("span.publish_wait_p50_us", "us", p50(sp.wait), len(sp.wait), "due → Publish start: the tick's earlier publishes plus generator lateness (open loop)")
	rep.add("span.ingress_p50_us", "us", p50(sp.ingress), len(sp.ingress), "Publish start → StagePublish")
	rep.add("span.queue_p50_us", "us", p50(sp.queue), len(sp.queue), "StagePublish → dispatch Pop")
	rep.add("span.queue_p99_us", "us", p99(sp.queue), len(sp.queue), "StagePublish → dispatch Pop")
	rep.add("span.dispatch_p50_us", "us", p50(sp.dispatch), len(sp.dispatch), "dispatch Pop → Ack (encode, ring enqueue)")
	rep.add("span.egress_p50_us", "us", p50(sp.egress), len(sp.egress), "dispatch Ack → subscriber OnDeliver")
	rep.add("span.egress_p99_us", "us", p99(sp.egress), len(sp.egress), "dispatch Ack → subscriber OnDeliver")
	rep.add("span.replicate_p50_us", "us", p50(sp.replicate), len(sp.replicate), "replicate Pop → Ack")
	rep.add("span.durable_p50_us", "us", p50(sp.durable), len(sp.durable), "StagePublish → StageDurable")
	rep.add("span.durable_p99_us", "us", p99(sp.durable), len(sp.durable), "StagePublish → StageDurable")
	rep.add("span.ack_return_p50_us", "us", p50(sp.ackReturn), len(sp.ackReturn), "StageDurable → Publish returns")

	base, traced := light.p50(), tr.p50()
	path := p50(sp.wait) + p50(sp.ingress) + p50(sp.queue) + p50(sp.dispatch) + p50(sp.egress)
	pathNote := "(publish_wait+ingress+queue+dispatch+egress span p50s) / untraced light p50"
	if len(sp.durable) > 0 {
		path = p50(sp.ingress) + p50(sp.durable) + p50(sp.ackReturn)
		pathNote = "(ingress+durable+ack_return span p50s) / untraced light p50"
	}
	rep.add("span.coverage", "ratio", ratio(path, us(base)), len(tr.lat), pathNote)
	rep.add("trace.overhead", "ratio", ratio(float64(traced), float64(base)), len(tr.lat), "traced light p50 / untraced light p50")
	fmt.Printf("info trace events lost=%d ambiguous pairings=%d orphans=%d\n", tr.traceLost, tr.pairs.ambiguous, tr.pairs.orphans)
	if tr.traceLost > 0 || tr.pairs.orphans > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%s: %d trace events dropped and %d left unpaired: the spans are incomplete",
			tr.name, tr.traceLost, tr.pairs.orphans))
	}

	names := make([]string, 0, len(heavy.layers))
	for n := range heavy.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.add(n, layerUnit(n), heavy.layers[n], heavy.attempted, "counter delta, heavy phase")
	}
	var replays []float64
	for _, p := range []*phaseOut{light, heavy} {
		if p.replay > 0 {
			replays = append(replays, p.replay.Seconds())
		}
	}
	replay := 0.0
	if len(replays) > 0 {
		replay = median(replays)
	}
	rep.add("diskstore.replay_s", "s", replay, len(replays), "OpenSegmented after stop (durable only)")
	rep.attempted += tr.attempted
	rep.failed += tr.lost
}

// layerUnit derives a counter metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_fraction"):
		return "ratio"
	case strings.HasSuffix(name, "_per_msg"), strings.HasSuffix(name, "_per_batch"), strings.HasSuffix(name, "_per_sweep"), strings.HasSuffix(name, "_per_fsync"):
		return "ratio"
	default:
		return "count"
	}
}
