// Command brokerd runs the elastic job broker as a daemon: an HTTP API
// for submitting CAP3/BLAST/GTM jobs over the simulated cloud substrate
// (blob store + scheduling queues) with an autoscaled, cost-accounted
// worker fleet per job. Job state is event-sourced: every lifecycle
// transition is journaled to the blob store, and a restarted daemon
// replays the journals and re-adopts unfinished work (-recover).
//
// Usage:
//
//	brokerd -addr :8080 -max-fleet 16 -workers 2 \
//	        -journal-bucket broker-journal -recover \
//	        -fleet-budget 16 -tenant-quotas alice=6,bob=2
//
// Endpoints (see internal/broker.HTTPHandler):
//
//	POST /jobs; GET /jobs, /jobs/{id}, /jobs/{id}/events,
//	/jobs/{id}/cost, /jobs/{id}/deadletters, /jobs/{id}/outputs,
//	/jobs/{id}/journal; POST /jobs/{id}/preempt; GET /fleet, /tenants
//
// Observability:
//
//	GET /metrics    whole-stack telemetry — queue op latency histograms,
//	                blob op histograms and byte gauges, per-task service
//	                time percentiles (overall and per instance type),
//	                autoscale decision counters, fleet and backlog gauges
//	                (Prometheus text; ?format=json)
//
// The calibration catalog — observed per-task service times keyed by
// (app, instance type), with side-by-side price-performance — is served
// on the main address: GET /catalog and /catalog/{app}.
// Settled tasks feed it continuously, and with -replan the broker
// re-runs instance selection against the observed curves mid-job,
// switching a mispredicted job's fleet to the type that is actually
// cheapest under the hysteresis guards (-replan-min-samples,
// -replan-error, -replan-cooldown).
//
// Each job is assigned a trace ID at submission (reported in its
// status); every queue request its control loop and workers make carries
// it as X-Trace-Id. -pprof serves net/http/pprof under /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/catalog"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// parseQuotas decodes "alice=6,bob=2" into a quota map.
func parseQuotas(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	quotas := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad quota %q (want tenant=N)", pair)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad quota %q: instance budget must be a positive integer", pair)
		}
		quotas[name] = n
	}
	return quotas, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxFleet := flag.Int("max-fleet", 16, "autoscaler max instances per job")
	minFleet := flag.Int("min-fleet", 1, "autoscaler min instances per job")
	workers := flag.Int("workers", 2, "workers per instance")
	visibility := flag.Duration("visibility", time.Minute, "task lease length")
	maxReceives := flag.Int("max-receives", 4, "per-task retry cap before dead-lettering")
	tick := flag.Duration("tick", 200*time.Millisecond, "autoscaler cadence")
	targetDrain := flag.Duration("target-drain", 30*time.Second,
		"size fleets to drain the backlog within this window once throughput is observed (0 = backlog heuristic only)")
	replanOn := flag.Bool("replan", true, "re-plan jobs mid-run against observed service times")
	replanMinSamples := flag.Int("replan-min-samples", 16, "observations required before re-planning")
	replanError := flag.Float64("replan-error", 0.5,
		"relative error vs the plan that triggers a re-plan (0.5 = observed 1.5x plan)")
	replanCooldown := flag.Duration("replan-cooldown", 2*time.Second, "minimum spacing between re-plans")
	journalBucket := flag.String("journal-bucket", "broker-journal",
		"blob bucket for per-job event journals (\"-\" disables journaling)")
	doRecover := flag.Bool("recover", false,
		"replay journals at startup and re-adopt unfinished jobs")
	fleetBudget := flag.Int("fleet-budget", 0,
		"broker-wide running-instance budget shared by all tenants (0 = sum of quotas, or unlimited)")
	tenantQuotas := flag.String("tenant-quotas", "",
		"per-tenant instance quotas, e.g. alice=6,bob=2")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	quotas, err := parseQuotas(*tenantQuotas)
	if err != nil {
		log.Fatalf("brokerd: -tenant-quotas: %v", err)
	}

	reg := telemetry.NewRegistry()
	env := classiccloud.Env{
		Blob:  blob.NewStore(blob.Config{Metrics: reg}),
		Queue: queue.NewService(queue.Config{Metrics: reg}),
	}
	cal, err := catalog.Open(catalog.Config{
		Store:  env.Blob,
		Prices: append(cloud.EC2Catalog(), cloud.AzureCatalog()...),
	})
	if err != nil {
		log.Fatalf("brokerd: opening calibration catalog: %v", err)
	}
	b := broker.New(broker.Config{
		Env:     env,
		Metrics: reg,
		Autoscale: broker.AutoscalePolicy{
			MinInstances: *minFleet,
			MaxInstances: *maxFleet,
			// The observed-throughput sizing basis only engages when a
			// drain target exists; without this default every fleet is
			// sized by the backlog heuristic forever.
			TargetDrain: *targetDrain,
		},
		WorkersPerInstance: *workers,
		VisibilityTimeout:  *visibility,
		MaxReceives:        *maxReceives,
		TickInterval:       *tick,
		JournalBucket:      *journalBucket,
		TenantQuotas:       quotas,
		FleetBudget:        *fleetBudget,
		Calibration:        cal,
		Replan: broker.ReplanPolicy{
			Enabled:     *replanOn,
			MinSamples:  *replanMinSamples,
			MinRelError: *replanError,
			Cooldown:    *replanCooldown,
		},
	})
	defer b.Close()

	if *doRecover {
		// brokerd's env is process-local, so a fresh daemon finds an
		// empty journal bucket; the flag matters when the environment is
		// shared (embedded brokers, future networked blob/queue
		// services), and recovery on an empty bucket is a no-op.
		n, err := b.Recover()
		if err != nil {
			log.Printf("brokerd: recovery: %v", err)
		}
		log.Printf("brokerd: recovered %d running job(s) from journal bucket %q", n, *journalBucket)
	}

	if *pprofOn {
		log.Printf("brokerd: pprof enabled on /debug/pprof/")
	}
	log.Printf("brokerd: listening on %s (max fleet %d, %d workers/instance, journal %q)",
		*addr, *maxFleet, *workers, *journalBucket)
	if err := http.ListenAndServe(*addr, newMux(reg, b, cal, *pprofOn)); err != nil {
		log.Fatal(err)
	}
}

// newMux routes brokerd's one address: metrics, the calibration
// catalog, optional pprof, and the broker API for everything else.
func newMux(reg *telemetry.Registry, b *broker.Broker, cal *catalog.Service, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	catalogHandler := &catalog.Handler{Service: cal}
	mux.Handle("/catalog", catalogHandler)
	mux.Handle("/catalog/", catalogHandler)
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", &broker.HTTPHandler{Broker: b})
	return mux
}
