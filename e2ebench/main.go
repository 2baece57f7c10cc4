// Command e2ebench is FRAME's end-to-end benchmark. It brings the system up
// in-process through its public constructors (broker.New, client
// publishers and subscribers, gateway.New and thin clients), drives it over
// loopback TCP with seeded inputs, checks the outputs, and prints every
// metric with its unit and sample count. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash e2ebench/run.sh --workload edge-pair --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds a traced phase
// and reports the per-layer metrics instead. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runLimit aborts a run that would overstay the benchmark's time budget.
const runLimit = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "input seed: schedules, phases and payload bytes derive from it")
		seconds  = flag.Float64("seconds", 25, "measured seconds, split across the workload's phases")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counters and a traced phase")
		root     = flag.String("root", ".", "repository checkout; durable logs go under <root>/.bench_build")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v, aborting\n", runLimit)
		os.Exit(3)
	})

	base := time.Now()
	r := &runner{
		seed:    *seed,
		clock:   func() time.Duration { return time.Since(base) },
		pat:     newPattern(*seed, bulkPayload),
		logRoot: filepath.Join(*root, ".bench_build", "durable"),
	}
	env, err := environment(r.logRoot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	if *workload == "durable-ack" && env.memFS {
		fmt.Fprintf(os.Stderr, "e2ebench: %v (%s)\n", errNotReal, r.logRoot)
		return 1
	}
	rep, err := r.run(w, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	env.kernel = rep.kernel
	if err := printReport(*workload, *seed, *trace == 1, env, rep); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	n          int    // samples behind it
	note       string // how it was derived
}

// report is a workload's outcome.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string
	kernel    bool
	phases    []*phaseOut
}

func (rep *report) add(name, unit string, value float64, n int, note string) {
	rep.metrics = append(rep.metrics, metric{name: name, unit: unit, value: value, n: n, note: note})
}

func printReport(workload string, seed uint64, traced bool, env envInfo, rep *report) error {
	envLine, _ := json.Marshal(map[string]any{
		"workload":      workload,
		"seed":          seed,
		"traced":        traced,
		"traffic":       "loopback TCP (127.0.0.1), all components in one process",
		"nproc":         env.nproc,
		"gomaxprocs":    env.gomaxprocs,
		"go":            env.goVersion,
		"kernel_submit": env.kernel,
		"durable_fs":    env.fsName,
	})
	fmt.Printf("env %s\n", envLine)
	for _, p := range rep.phases {
		fmt.Printf("phase %-14s setup=%.1fms p50=%.0fus p99=%.0fus cpu=%.1fus/msg tput=%.4fMB/s attempted=%d lost=%d delivered=%d reorders=%d evicted=%v\n",
			p.name, float64(p.setup)/1e6, us(p.p50()), us(p.p99()), p.cpuPerMsg(), p.throughput(), p.attempted, p.lost, p.delivered, p.reorders, p.evicted)
	}
	out := map[string]map[string]any{}
	for _, m := range rep.metrics {
		fmt.Printf("metric %-34s %14.4f %-6s n=%-7d %s\n", m.name, m.value, m.unit, m.n, m.note)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, p := range rep.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		return fmt.Errorf("encode result: %w", err) // a NaN or Inf metric
	}
	fmt.Println(string(line))
	return nil
}

// envInfo is the environment recorded with every result.
type envInfo struct {
	nproc, gomaxprocs int
	goVersion         string
	kernel            bool
	fsName            string
	memFS             bool
}

func environment(logRoot string) (envInfo, error) {
	e := envInfo{nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version()}
	if err := os.MkdirAll(logRoot, 0o755); err != nil {
		return e, fmt.Errorf("durable log root: %w", err)
	}
	name, mem, err := fsType(logRoot)
	if err != nil {
		return e, err
	}
	e.fsName, e.memFS = name, mem
	return e, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
