package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// counters is one snapshot of every public counter the per-layer metrics
// are differenced from.
type counters struct {
	at        time.Duration
	core      core.Stats
	egress    transport.EgressStats
	gwEgress  transport.EgressStats
	gwFwdErrs uint64
	peerStall uint64
	late      uint64
	queueSum  time.Duration
	queueN    uint64
	dispSum   time.Duration
	dispN     uint64
	repSum    time.Duration
	repN      uint64
	scrape    map[string]float64
	mallocs   uint64
	gcCycles  uint32
	gcCPU     float64       // runtime estimate of GC CPU-seconds
	cpu       time.Duration // process user+system CPU
}

func (d *deployment) snapshot(at time.Duration) (counters, error) {
	p := d.primary
	o := d.obs
	c := counters{
		at:        at,
		core:      p.Stats(),
		egress:    p.EgressStats(),
		peerStall: p.PeerStalls(),
		late:      p.LateDispatches(),
		queueSum:  o.StageQueueWait.Sum(),
		queueN:    o.StageQueueWait.Count(),
		dispSum:   o.StageDispatch.Sum(),
		dispN:     o.StageDispatch.Count(),
		repSum:    o.StageReplicate.Sum(),
		repN:      o.StageReplicate.Count(),
	}
	if d.gw != nil {
		c.gwEgress = d.gw.EgressStats()
		c.gwFwdErrs = d.gw.ForwardErrs()
	}
	var err error
	if c.scrape, err = d.scrape(); err != nil {
		return c, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.gcCycles = ms.NumGC
	c.gcCPU = gcCPUSeconds()
	c.cpu = processCPU()
	return c, nil
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent in GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func meanUs(sum time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return us(sum) / float64(n)
}

// layerDeltas turns two snapshots into the per-layer counter metrics.
// Per-message ratios divide by messages the Primary accepted between them.
func layerDeltas(a, b counters, egressQueuedMax int) map[string]float64 {
	msgs := float64(b.core.Published - a.core.Published)
	elapsed := (b.at - a.at).Seconds()
	eg := func(f func(transport.EgressStats) uint64) float64 { return float64(f(b.egress) - f(a.egress)) }
	gw := func(f func(transport.EgressStats) uint64) float64 { return float64(f(b.gwEgress) - f(a.gwEgress)) }
	sc := func(name string) float64 { return b.scrape[name] - a.scrape[name] }
	flushed := func(s transport.EgressStats) uint64 { return s.Flushed }
	syscalls := func(s transport.EgressStats) uint64 { return s.WriteSyscalls }
	return map[string]float64{
		"broker.queue_wait_mean_us": meanUs(b.queueSum-a.queueSum, b.queueN-a.queueN),
		"broker.dispatch_mean_us":   meanUs(b.dispSum-a.dispSum, b.dispN-a.dispN),
		"broker.replicate_mean_us":  meanUs(b.repSum-a.repSum, b.repN-a.repN),
		"broker.late_dispatches":    float64(b.late - a.late),
		"broker.intake_stalls":      sc("frame_lane_intake_stalls_total"),
		"broker.peer_stalls":        float64(b.peerStall - a.peerStall),

		"core.replications_per_msg":     ratio(float64(b.core.ReplicationJobs-a.core.ReplicationJobs), msgs),
		"core.prunes_per_msg":           ratio(float64(b.core.PrunesSent-a.core.PrunesSent), msgs),
		"core.aborted_replicas_per_msg": ratio(float64(b.core.AbortedReplicas-a.core.AbortedReplicas), msgs),

		"transport.write_syscalls_per_msg": ratio(eg(syscalls), eg(flushed)),
		"transport.frames_per_batch":       ratio(eg(flushed), eg(func(s transport.EgressStats) uint64 { return s.Batches })),
		"transport.conns_per_sweep": ratio(eg(func(s transport.EgressStats) uint64 { return s.SweepConns }),
			eg(func(s transport.EgressStats) uint64 { return s.SubmittedBatches })),
		"transport.egress_queued_max": float64(egressQueuedMax),
		"transport.shed":              eg(func(s transport.EgressStats) uint64 { return s.Shed }),
		"transport.evictions":         eg(func(s transport.EgressStats) uint64 { return s.Evictions }),

		"diskstore.records_per_fsync": ratio(sc("frame_durable_records_total"), sc("frame_durable_fsyncs_total")),
		"diskstore.fsyncs_per_s":      ratio(sc("frame_durable_fsyncs_total"), elapsed),

		"gateway.write_syscalls_per_msg": ratio(gw(syscalls), gw(flushed)),
		"gateway.shed":                   gw(func(s transport.EgressStats) uint64 { return s.Shed }),
		"gateway.forward_errs":           float64(b.gwFwdErrs - a.gwFwdErrs),

		"runtime.allocs_per_msg":  ratio(float64(b.mallocs-a.mallocs), msgs),
		"runtime.gc_cycles":       float64(b.gcCycles - a.gcCycles),
		"runtime.gc_cpu_fraction": ratio(b.gcCPU-a.gcCPU, (b.cpu - a.cpu).Seconds()),
	}
}
