package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/catalog"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
	"repro/internal/telemetry"
)

// tickInterval is the broker's control-loop cadence on every workload.
// A job's completion is noticed on a tick, so a short tick keeps the
// job-stream latency about framework work rather than about waiting.
const tickInterval = 5 * time.Millisecond

// stack is the whole job path composed in one process from the public
// constructors: brokerd's HTTP face and broker (journal, catalog and
// telemetry on, as in cmd/brokerd), whose queue is a wire client to a
// wire server fronting a shard router over nproc durable queue shards,
// each journaling into its own blob store.
type stack struct {
	shards      []*queue.Service
	journals    []*blob.Store
	journalRegs []*telemetry.Registry
	queueReg    *telemetry.Registry
	router      *shard.Router
	wireSrv     *wire.Server
	wireCli     *wire.Client
	blob        *blob.Store
	blobReg     *telemetry.Registry
	catalog     *catalog.Service
	broker      *broker.Broker
	http        *http.Server
	client      *broker.HTTPClient
	clientTr    *http.Transport
	exec        *execCounters
	// instanceType is the broker's default instance type. No job asks
	// for a target makespan, so the catalog files every sample under it.
	instanceType string
}

// stackConfig is what a workload chooses about the stack.
type stackConfig struct {
	shards    int
	instances int // pinned fleet per job: MinInstances = MaxInstances
	clients   int // HTTP connections the load generator may open
}

// startStack builds the stack and returns once its first request has
// been accepted. t, when non-nil, wraps every layer boundary.
func startStack(cfg stackConfig, t *tracer) (_ *stack, err error) {
	s := &stack{
		queueReg:     telemetry.NewRegistry(),
		blobReg:      telemetry.NewRegistry(),
		exec:         &execCounters{},
		instanceType: cloud.AzureSmall.Key(),
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.router = shard.NewRouter(shard.Config{Metrics: telemetry.NewRegistry()})
	for i := range cfg.shards {
		id := fmt.Sprintf("s%d", i)
		jreg := telemetry.NewRegistry()
		js := blob.NewStore(blob.Config{Metrics: jreg})
		svc := queue.NewService(queue.Config{
			Seed: int64(i + 1), Metrics: s.queueReg, MetricsName: id,
			Durability: &queue.Durability{Store: js, Bucket: "queue-journal", Key: "shard-" + id},
		})
		if err := svc.Recover(); err != nil {
			return nil, fmt.Errorf("recovering shard %s: %w", id, err)
		}
		s.shards = append(s.shards, svc)
		s.journals = append(s.journals, js)
		s.journalRegs = append(s.journalRegs, jreg)
		var backend queue.API = svc
		if t != nil {
			backend = wrapQueue(svc, t, layerQueue, "")
		}
		if err := s.router.AddShard(id, backend); err != nil {
			return nil, fmt.Errorf("adding shard %s: %w", id, err)
		}
	}

	var front queue.API = s.router
	if t != nil {
		front = wrapQueue(s.router, t, layerShard, "")
	}
	s.wireSrv = &wire.Server{Service: front, Metrics: telemetry.NewRegistry()}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Serve returns once the server is closed.
	go func() { _ = s.wireSrv.Serve(wln) }()
	s.wireCli = wire.Dial(wln.Addr().String(), wire.Options{})
	var q queue.API = s.wireCli
	if t != nil {
		q = wrapQueue(s.wireCli, t, layerWire, "")
	}

	s.blob = blob.NewStore(blob.Config{Metrics: s.blobReg})
	s.catalog, err = catalog.Open(catalog.Config{
		Store:  s.blob,
		Prices: append(cloud.EC2Catalog(), cloud.AzureCatalog()...),
	})
	if err != nil {
		return nil, fmt.Errorf("opening catalog: %w", err)
	}
	s.broker = broker.New(broker.Config{
		Env:                classiccloud.Env{Blob: s.blob, Queue: q},
		Registry:           s.registry(t),
		Metrics:            telemetry.NewRegistry(),
		Calibration:        s.catalog,
		WorkersPerInstance: 1,
		TickInterval:       tickInterval,
		Autoscale:          broker.AutoscalePolicy{MinInstances: cfg.instances, MaxInstances: cfg.instances},
	})

	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.http = &http.Server{Handler: &broker.HTTPHandler{Broker: s.broker}}
	go func() { _ = s.http.Serve(hln) }()
	s.clientTr = &http.Transport{MaxConnsPerHost: cfg.clients, MaxIdleConnsPerHost: cfg.clients}
	s.client = &broker.HTTPClient{BaseURL: "http://" + hln.Addr().String(), Client: &http.Client{Transport: s.clientTr}}

	// The first request crosses every layer: HTTP into the broker, and
	// a queue call over the wire through the router.
	if _, err := s.client.FleetSize(); err != nil {
		return nil, fmt.Errorf("first request: %w", err)
	}
	if err := q.CreateQueue("bench-probe"); err != nil && !errors.Is(err, queue.ErrQueueExists) {
		return nil, fmt.Errorf("first queue request: %w", err)
	}
	return s, nil
}

// registry is the broker's app table: the paper's apps plus the
// identity executor, each timed by timedExec.
func (s *stack) registry(t *tracer) map[string]broker.ExecutorFactory {
	reg := broker.DefaultRegistry()
	reg[echoApp] = func(map[string][]byte) (classiccloud.Executor, error) {
		return classiccloud.FuncExecutor{AppName: echoApp, Fn: func(_ classiccloud.Task, in []byte) ([]byte, error) {
			return in, nil
		}}, nil
	}
	for name, f := range reg {
		reg[name] = func(shared map[string][]byte) (classiccloud.Executor, error) {
			e, err := f(shared)
			if err != nil {
				return nil, err
			}
			return timedExec{inner: e, c: s.exec, t: t}, nil
		}
	}
	return reg
}

// jobRequests is the router's own bill for one job's queues.
func (s *stack) jobRequests(jobID string) int64 {
	r := s.router
	return r.APIRequestsFor(jobID+"/tasks") + r.APIRequestsFor(jobID+"/monitor") + r.APIRequestsFor(jobID+"/dead")
}

// close stops every part that was started, outermost first, and waits
// for the broker's job loops and fleets to exit.
func (s *stack) close() {
	if s.http != nil {
		_ = s.http.Close()
	}
	if s.clientTr != nil {
		s.clientTr.CloseIdleConnections()
	}
	if s.broker != nil {
		s.broker.Close()
	}
	if s.wireCli != nil {
		_ = s.wireCli.Close()
	}
	if s.wireSrv != nil {
		_ = s.wireSrv.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
}

// timedSetup builds the stack reps times, timing each from start until
// its first request is accepted, and keeps the last one.
func timedSetup(cfg stackConfig, t *tracer, reps int) (*stack, []float64, error) {
	var times []float64
	for i := range reps {
		start := time.Now()
		s, err := startStack(cfg, t)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == reps-1 {
			return s, times, nil
		}
		s.close()
	}
	return nil, nil, errors.New("no setup repetitions")
}
