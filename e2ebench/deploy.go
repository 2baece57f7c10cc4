package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/gateway"
	"repro/internal/obsv"
	"repro/internal/spec"
	"repro/internal/timing"
	"repro/internal/transport"
)

// deployOpts describes one phase's system under test.
type deployOpts struct {
	backup     bool // a Backup replicates per Prop. 1; false: Primary alone
	gateway    bool // clients are thin clients of a gateway in front of the Primary
	topics     []spec.Topic
	publishers int // publisher connections, each owning topics[i::publishers]
	subscribe  bool
	durable    bool // ACK = durable, logging to a fresh directory
	lossless   bool // EgressNoShed: a full ring blocks instead of shedding
	onDeliver  func(client.Delivery)
	tracer     func(obsv.TraceEvent)
}

// deployment is one phase's running system.
type deployment struct {
	primary, backup *broker.Broker
	gw              *gateway.Gateway
	pubs            []*client.Publisher
	sub             *client.Subscriber
	thin            *gateway.ThinSubscriber
	obs             *obsv.BrokerMetrics // the Primary's instruments
	logDir          string              // durable log directory, "" when not durable
}

// egressDepth sizes the subscriber rings (the Primary's, and the
// gateway's per-client ring). The default 1024 frames hold 34 ms at
// 30,000 msg/s: one host scheduling stall that long, which a shared 2-CPU
// host produces now and then, fills the ring, and an Li = 0 topic that
// cannot shed evicts the subscriber. At 8192 frames such a stall shows as
// latency instead of ending the measurement.
const egressDepth = 8192

// detector spends the paper's whole 50 ms fail-over budget
// (Period·Misses + Timeout) where the default spends 25 ms: with the
// default, a Backup on a shared 2-CPU host took a host stall of a few tens
// of milliseconds for a crash and promoted itself mid-run.
var detector = failover.Config{Period: 10 * time.Millisecond, Timeout: 20 * time.Millisecond, Misses: 3}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
}

// deploy brings the system up over loopback TCP through the public
// constructors and returns once every client is attached: the Primary's
// replication link is up and the subscriber (or gateway session) is
// registered, so the first publish has somewhere to go. A durable
// deployment logs under a fresh directory below the runner's log root,
// which outlives stop so that the log can be replayed; removeLog deletes
// it. On error everything brought up so far is torn down.
func (r *runner) deploy(o deployOpts) (_ *deployment, err error) {
	clock := r.clock
	network := &transport.TCP{DialTimeout: 2 * time.Second}
	cfg := core.FRAMEConfig(timing.PaperParams())
	cfg.HasBackup = o.backup
	d := &deployment{obs: obsv.NewBrokerMetrics()}
	defer func() {
		if err != nil {
			d.stop()
			d.removeLog()
		}
	}()
	if o.durable {
		dir, err := makeLogDir(r.logRoot)
		if err != nil {
			return nil, fmt.Errorf("log dir: %w", err)
		}
		d.logDir = filepath.Join(dir, "log")
	}
	if o.tracer != nil {
		d.obs.SetTracer(o.tracer)
	}
	peer := ""
	if cfg.HasBackup {
		b, err := broker.New(broker.Options{
			Engine:     cfg,
			Role:       broker.RoleBackup,
			ListenAddr: "127.0.0.1:0",
			PeerAddr:   "pending", // set once the Primary has bound its port
			Network:    network,
			Detector:   detector,
			Clock:      clock,
			Topics:     o.topics,
			Logger:     quietLogger(),
		})
		if err != nil {
			return nil, fmt.Errorf("backup: %w", err)
		}
		d.backup = b
		peer = b.Addr()
	}
	p, err := broker.New(broker.Options{
		Engine:         cfg,
		Role:           broker.RolePrimary,
		ListenAddr:     "127.0.0.1:0",
		PeerAddr:       peer,
		Network:        network,
		Clock:          clock,
		Topics:         o.topics,
		Logger:         quietLogger(),
		Obs:            d.obs,
		AdminAddr:      "127.0.0.1:0",
		EgressDepth:    egressDepth,
		EgressNoShed:   o.lossless,
		Durable:        o.durable,
		LogDir:         d.logDir,
		LogRetainBytes: -1,
		LogRetainAge:   -1,
	})
	if err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	d.primary = p
	if d.backup != nil {
		d.backup.SetPeerAddr(p.Addr())
		d.backup.Start()
	}
	p.Start()
	if d.backup != nil {
		if err := waitFor("replication link", func() bool { return p.Health().PeerConnected }); err != nil {
			return nil, err
		}
	}

	entry := p.Addr() // where clients publish
	if o.gateway {
		gw, err := gateway.New(gateway.Options{
			ListenAddr:  "127.0.0.1:0",
			Topics:      o.topics,
			BrokerAddrs: []string{p.Addr()},
			Network:     network,
			Clock:       clock,
			Name:        "bench-gateway",
			// The default 64-frame ring is sized for phone-class clients
			// on a few topics; this one thin client carries the whole mix,
			// so it gets the same ring depth as a direct subscriber.
			ClientDepth: egressDepth,
			Logger:      quietLogger(),
		})
		if err != nil {
			return nil, fmt.Errorf("gateway: %w", err)
		}
		d.gw = gw
		gw.Start()
		entry = gw.Addr()
	}

	if o.subscribe {
		ids := make([]spec.TopicID, len(o.topics))
		for i, t := range o.topics {
			ids[i] = t.ID
		}
		if d.gw != nil {
			d.thin, err = gateway.NewThinSubscriber(gateway.ThinSubscriberOptions{
				Name:        "bench-sub",
				Topics:      ids,
				GatewayAddr: entry,
				Network:     network,
				Clock:       clock,
				OnDeliver:   o.onDeliver,
				Logger:      quietLogger(),
			})
		} else {
			d.sub, err = client.NewSubscriber(client.SubscriberOptions{
				Name:        "bench-sub",
				Topics:      ids,
				BrokerAddrs: []string{entry},
				Network:     network,
				Clock:       clock,
				OnDeliver:   o.onDeliver,
				Logger:      quietLogger(),
			})
		}
		if err != nil {
			return nil, fmt.Errorf("subscriber: %w", err)
		}
		ready := func() bool { return p.Health().EgressSubs >= 1 }
		if d.gw != nil {
			ready = func() bool { return p.Health().EgressSubs >= 1 && d.gw.Subscribers() >= 1 }
		}
		if err := waitFor("subscription", ready); err != nil {
			return nil, err
		}
	}

	for i := 0; i < o.publishers; i++ {
		var owned []spec.Topic
		for j := i; j < len(o.topics); j += o.publishers {
			owned = append(owned, o.topics[j])
		}
		pub, err := client.NewPublisher(client.PublisherOptions{
			Name:        fmt.Sprintf("bench-pub-%d", i),
			Topics:      owned,
			PrimaryAddr: entry,
			Network:     network,
			Clock:       clock,
			DurableAcks: o.durable,
			AckTimeout:  10 * time.Second,
			Logger:      quietLogger(),
		})
		if err != nil {
			return nil, fmt.Errorf("publisher: %w", err)
		}
		d.pubs = append(d.pubs, pub)
	}
	return d, nil
}

// waitFor polls cond every 50 µs until it holds or five seconds pass. It
// sleeps through a pacer: time.Sleep would round each poll up to about a
// millisecond and add that rounding to setup_s.
func waitFor(what string, cond func() bool) error {
	pace := newPacer()
	defer pace.stop()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("bring-up: %s not ready after 5s", what)
		}
		pace.sleep(50 * time.Microsecond)
	}
	return nil
}

// stop tears everything down, clients first, and waits for it; after it
// returns every receive callback has run. Calling it again is a no-op.
func (d *deployment) stop() {
	for _, p := range d.pubs {
		p.Close()
	}
	d.pubs = nil
	if d.sub != nil {
		d.sub.Close()
		d.sub = nil
	}
	if d.thin != nil {
		d.thin.Close()
		d.thin = nil
	}
	if d.gw != nil {
		d.gw.Stop()
		d.gw = nil
	}
	if d.primary != nil {
		d.primary.Stop()
		d.primary = nil
	}
	if d.backup != nil {
		d.backup.Stop()
		d.backup = nil
	}
}

// removeLog deletes a durable deployment's log directory.
func (d *deployment) removeLog() {
	if d.logDir != "" {
		os.RemoveAll(filepath.Dir(d.logDir))
	}
}

// promoted reports whether the Backup took over — a false failure
// detection, which would invalidate the phase.
func (d *deployment) promoted() bool {
	if d.backup == nil {
		return false
	}
	select {
	case <-d.backup.Promoted():
		return true
	default:
		return false
	}
}

// evictions counts subscribers (or thin clients) evicted for exceeding a
// topic's loss tolerance — the capacity cliff.
func (d *deployment) evictions() uint64 {
	n := d.primary.EgressStats().Evictions
	if d.gw != nil {
		n += d.gw.Evictions()
	}
	return n
}

// egressQueued is the frames currently queued toward the subscriber.
func (d *deployment) egressQueued() int {
	n := d.primary.Health().EgressQueued
	if d.gw != nil {
		n += d.gw.Health().EgressQueued
	}
	return n
}

// scrape reads the Primary's admin /metrics and sums samples by name
// across labels.
func (d *deployment) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.primary.AdminAddr() + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %s", resp.Status)
	}
	samples, err := obsv.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Name] += s.Value
	}
	return out, nil
}

// errNotReal is returned when the durable log would sit on a filesystem
// where fsync costs nothing.
var errNotReal = errors.New("durable log directory is on a memory-backed filesystem (tmpfs/ramfs): fsync is free there, so durable acks would measure nothing")

// makeLogDir creates a fresh durable log directory under root.
func makeLogDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "log-*")
}
