// Command queuerouter runs the sharded queue front as a daemon: one
// SQS-shaped HTTP endpoint (the same protocol a single queue service
// serves) backed by N shards, each either an in-process service or a
// remote queue node reached over HTTP. Queue names map to shards by
// consistent hashing; shards can be added and removed at runtime
// through the admin API, with live queues migrated by drain-and-forward.
//
// Usage:
//
//	queuerouter -addr :8090 -shards a=http://node1:8080,b=http://node2:8080
//	queuerouter -addr :8090 -local 4     # 4 in-process shards (demo/bench)
//	queuerouter -addr :8090 -local 4 -wire-addr :8091   # + binary wire listener
//
// Queue API: every endpoint of internal/queue.HTTPHandler, unchanged —
// consumers point their queue.HTTPClient at the router instead of a
// single node. With -wire-addr the router additionally serves the
// binary wire protocol (internal/queue/wire) on a second listener and
// advertises it at GET /wire, so wire.Client consumers skip JSON and
// HTTP framing on the hot path. The router itself probes each remote
// shard's GET /wire on registration and speaks wire to shards that
// advertise it, falling back to HTTP/JSON per request if the wire
// connection is down.
//
// Admin API — every endpoint answers the same versioned JSON envelope,
// {"v":1,"ok":true,"data":…} on success and
// {"v":1,"ok":false,"error":{"code":…,"message":…}} on failure, with
// stable machine-readable codes ("no_such_queue", "no_standby", …)
// mapped from the queue and shard error sentinels so clients switch on
// the code rather than parsing message text:
//
//	GET    /admin/shards               data: {"shards":[…],"groups":[…],
//	                                   "splits":{…},"standbys":[…],
//	                                   "failovers":N,"autoscale":{…}} —
//	                                   placement, billing, load, weights,
//	                                   replication, and policy status
//	PUT    /admin/shards/{id}?url=U    add a shard (migrates ≈1/N of queue groups)
//	DELETE /admin/shards/{id}          retire a shard (migrates its queues)
//	POST   /admin/rebalance            retry migrations the ring implies
//	POST   /admin/regroup?queue=Q&group=G  move a queue into placement group G
//	POST   /admin/regroup?prefix=P&group=G bulk-move every live queue whose
//	                                       name starts with P (data:
//	                                       {"matched": N})
//	POST   /admin/split?group=G&k=N    spread group G over N sub-arcs (k=1
//	                                   merges it back onto one shard)
//	POST   /admin/split?group=G&pin=true   opt G out of splitting (strict
//	                                       co-location; pin=false re-admits it)
//	POST   /admin/failover?shard=ID    promote the shard's registered standby
//	                                   and swap it in under the same id
//	                                   ("no_standby" when none is registered)
//
// Durability & replication: -durable journals every in-process shard's
// accepted mutations write-ahead to a shared blob store, so a crashed
// shard's exact state — depths, delivery counts, live receipts — is
// recoverable; -snapshot-every bounds replay. -replicate additionally
// runs a warm follower per durable shard, registered as its failover
// standby; -health-interval starts the router's probe loop, which
// fails a dead shard over to its caught-up follower automatically
// (operators can also POST /admin/failover).
//
// Load-aware operation: -autoscale enables the router-side shard-fleet
// policy (internal/queue/shard.AutoscalePolicy) — it splits hot
// placement groups across sub-arcs past -split-threshold, weights ring
// arcs toward equal observed load, and grows/shrinks the fleet between
// -autoscale-min and -autoscale-max using pre-provisioned
// -autoscale-reserve shards first, then (with -local) fresh in-process
// shards.
//
// Observability:
//
//	GET /metrics    router telemetry — per-op latency histograms, per-shard
//	                request rates and backlog gauges, HTTP latency
//	                (Prometheus text; ?format=json for JSON)
//
// -slow logs any request slower than the threshold, keyed by the
// X-Trace-Id request header (generated when absent, echoed always), so a
// slow call is attributable across router and shard logs. -pprof
// additionally serves net/http/pprof under /debug/pprof/.
//
// Placement groups: the ring hashes the part of a queue name before
// the first '/' (so "job-7/tasks" and "job-7/monitor" share a shard);
// /admin/regroup migrates a pre-existing ungrouped queue into its
// group's shard via the same drain-and-forward machinery.
//
// Migration transfers messages with their delivery counts preserved
// through the privileged transfer endpoint. -transfer-token provisions
// that endpoint on this router AND authorizes the router against its
// remote shards (which must run with the same token); without it,
// migration falls back to a count-resetting public re-send. The flag
// takes a comma-separated list for zero-downtime rotation: every listed
// token is ACCEPTED on this router's transfer endpoint, and the FIRST is
// presented to remote shards — provision old+new on the shards, list
// "new,old" here, then drop the old everywhere.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/blob"
	"repro/internal/queue"
	"repro/internal/queue/shard"
	"repro/internal/queue/wire"
	"repro/internal/telemetry"
)

// parseShards decodes "a=http://node1:8080,b=http://node2:8080".
func parseShards(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad shard %q (want id=url)", pair)
		}
		out[id] = url
	}
	return out, nil
}

// dialShard builds the backend for a remote shard: the wire transport
// when the node advertises one at GET /wire, plain HTTP otherwise. The
// HTTP client always exists — it is the wire client's per-request
// fallback, so a wire listener outage degrades to JSON instead of
// failing traffic.
func dialShard(url, token string, reg *telemetry.Registry) (queue.API, string) {
	httpc := &queue.HTTPClient{BaseURL: url, AdminToken: token}
	if waddr, ok := wire.DiscoverAddr(url); ok {
		return wire.Dial(waddr, wire.Options{
			AdminToken: token,
			Metrics:    reg,
			Fallback:   httpc,
		}), fmt.Sprintf("%s (wire %s)", url, waddr)
	}
	return httpc, url + " (http)"
}

// adminHandler manages router topology and placement over HTTP.
type adminHandler struct {
	router  *shard.Router
	metrics *telemetry.Registry
	// auto is the shard-fleet autoscaler when -autoscale is set; its
	// status rides along on GET /admin/shards.
	auto *shard.Autoscaler
	// transferToken authorizes shards added at runtime for
	// count-preserving transfers.
	transferToken string
}

// adminV versions the admin envelope; bump it only on a breaking
// change to the envelope shape itself (data payloads may grow fields
// within a version).
const adminV = 1

// adminResponse is the envelope every /admin/* endpoint returns:
// exactly one of Data (ok) or Error (not ok) is populated.
type adminResponse struct {
	V     int         `json:"v"`
	OK    bool        `json:"ok"`
	Data  any         `json:"data,omitempty"`
	Error *adminError `json:"error,omitempty"`
}

// adminError carries a stable machine-readable code alongside the
// human-readable message; clients branch on Code.
type adminError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// adminErrCode maps queue and shard error sentinels onto envelope
// codes and HTTP statuses. Anything unrecognized is an upstream
// failure ("internal", 502) — the admin request itself was valid.
func adminErrCode(err error) (string, int) {
	switch {
	case errors.Is(err, queue.ErrNoSuchQueue):
		return "no_such_queue", http.StatusNotFound
	case errors.Is(err, shard.ErrNoSuchShard):
		return "no_such_shard", http.StatusNotFound
	case errors.Is(err, shard.ErrShardExists):
		return "shard_exists", http.StatusConflict
	case errors.Is(err, shard.ErrNoStandby):
		return "no_standby", http.StatusConflict
	case errors.Is(err, shard.ErrGroupPinned):
		return "group_pinned", http.StatusConflict
	case errors.Is(err, shard.ErrNoShards):
		return "no_shards", http.StatusConflict
	case errors.Is(err, shard.ErrBadShardID):
		return "bad_shard_id", http.StatusBadRequest
	case errors.Is(err, shard.ErrBadGroup):
		return "bad_group", http.StatusBadRequest
	case errors.Is(err, shard.ErrBadSplit):
		return "bad_split", http.StatusBadRequest
	case errors.Is(err, queue.ErrHalted):
		return "shard_halted", http.StatusBadGateway
	default:
		return "internal", http.StatusBadGateway
	}
}

// writeAdmin answers the success envelope. A nil data is legal — the
// envelope's ok:true is the result.
func writeAdmin(w http.ResponseWriter, status int, data any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(adminResponse{V: adminV, OK: true, Data: data})
}

// writeAdminErr answers the failure envelope for a backend error,
// mapping it through adminErrCode.
func writeAdminErr(w http.ResponseWriter, err error) {
	code, status := adminErrCode(err)
	writeAdminFail(w, status, code, err.Error())
}

// writeAdminFail answers the failure envelope with an explicit code,
// for request-shape errors that never reached the router.
func writeAdminFail(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(adminResponse{V: adminV, OK: false, Error: &adminError{Code: code, Message: msg}})
}

// adminShardsView is the GET /admin/shards data payload: both
// placement axes plus replication and live policy state.
type adminShardsView struct {
	Shards    []shard.ShardStat      `json:"shards"`
	Groups    []shard.GroupStat      `json:"groups"`
	Splits    map[string]int         `json:"splits"`
	Standbys  []string               `json:"standbys"`
	Failovers int64                  `json:"failovers"`
	Autoscale *shard.AutoscaleStatus `json:"autoscale,omitempty"`
}

func (h *adminHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/admin/rebalance" {
		if r.Method != http.MethodPost {
			writeAdminFail(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
			return
		}
		if err := h.router.Rebalance(); err != nil {
			writeAdminErr(w, err)
			return
		}
		log.Printf("queuerouter: rebalanced")
		writeAdmin(w, http.StatusOK, nil)
		return
	}
	if r.URL.Path == "/admin/failover" {
		if r.Method != http.MethodPost {
			writeAdminFail(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
			return
		}
		id := r.URL.Query().Get("shard")
		if id == "" {
			writeAdminFail(w, http.StatusBadRequest, "bad_request", "missing shard parameter")
			return
		}
		if err := h.router.Failover(id); err != nil {
			writeAdminErr(w, err)
			return
		}
		log.Printf("queuerouter: failed over shard %q to its standby", id)
		writeAdmin(w, http.StatusOK, map[string]string{"shard": id})
		return
	}
	if r.URL.Path == "/admin/regroup" {
		if r.Method != http.MethodPost {
			writeAdminFail(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
			return
		}
		queueName := r.URL.Query().Get("queue")
		prefix := r.URL.Query().Get("prefix")
		group := r.URL.Query().Get("group")
		if (queueName == "") == (prefix == "") {
			writeAdminFail(w, http.StatusBadRequest, "bad_request", "need exactly one of queue= or prefix=")
			return
		}
		if prefix != "" {
			matched, err := h.router.RegroupPrefix(prefix, group)
			if err != nil {
				writeAdminErr(w, err)
				return
			}
			log.Printf("queuerouter: regrouped %d queue(s) with prefix %q into %q", matched, prefix, group)
			writeAdmin(w, http.StatusOK, map[string]int{"matched": matched})
			return
		}
		if err := h.router.Regroup(queueName, group); err != nil {
			writeAdminErr(w, err)
			return
		}
		log.Printf("queuerouter: regrouped %q into %q", queueName, group)
		writeAdmin(w, http.StatusOK, map[string]string{"queue": queueName, "group": group})
		return
	}
	if r.URL.Path == "/admin/split" {
		if r.Method != http.MethodPost {
			writeAdminFail(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST required")
			return
		}
		group := r.URL.Query().Get("group")
		if group == "" {
			writeAdminFail(w, http.StatusBadRequest, "bad_request", "missing group parameter")
			return
		}
		if pinStr := r.URL.Query().Get("pin"); pinStr != "" {
			pin, err := strconv.ParseBool(pinStr)
			if err != nil {
				writeAdminFail(w, http.StatusBadRequest, "bad_request", "bad pin parameter")
				return
			}
			if err := h.router.PinGroup(group, pin); err != nil {
				writeAdminErr(w, err)
				return
			}
			log.Printf("queuerouter: group %q pinned=%v", group, pin)
			writeAdmin(w, http.StatusOK, map[string]any{"group": group, "pinned": pin})
			return
		}
		k, err := strconv.Atoi(r.URL.Query().Get("k"))
		if err != nil {
			writeAdminFail(w, http.StatusBadRequest, "bad_request", "bad or missing k parameter")
			return
		}
		if err := h.router.SplitGroup(group, k); err != nil {
			writeAdminErr(w, err)
			return
		}
		log.Printf("queuerouter: group %q split to %d sub-arc(s)", group, k)
		writeAdmin(w, http.StatusOK, map[string]any{"group": group, "k": k})
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/admin/shards")
	if !ok {
		writeAdminFail(w, http.StatusNotFound, "not_found", "unknown admin endpoint")
		return
	}
	rest = strings.TrimPrefix(rest, "/")
	switch {
	case rest == "" && r.Method == http.MethodGet:
		view := adminShardsView{
			Shards:    h.router.Stats(),
			Groups:    h.router.GroupStats(),
			Splits:    h.router.Splits(),
			Standbys:  h.router.Standbys(),
			Failovers: h.router.Failovers(),
		}
		if h.auto != nil {
			st := h.auto.Status()
			view.Autoscale = &st
		}
		writeAdmin(w, http.StatusOK, view)
	case rest != "" && r.Method == http.MethodPut:
		url := r.URL.Query().Get("url")
		if url == "" {
			writeAdminFail(w, http.StatusBadRequest, "bad_request", "missing url parameter")
			return
		}
		backend, desc := dialShard(url, h.transferToken, h.metrics)
		if err := h.router.AddShard(rest, backend); err != nil {
			writeAdminErr(w, err)
			return
		}
		log.Printf("queuerouter: added shard %q at %s", rest, desc)
		writeAdmin(w, http.StatusCreated, map[string]string{"shard": rest, "backend": desc})
	case rest != "" && r.Method == http.MethodDelete:
		if err := h.router.RemoveShard(rest); err != nil {
			writeAdminErr(w, err)
			return
		}
		log.Printf("queuerouter: retired shard %q", rest)
		writeAdmin(w, http.StatusOK, map[string]string{"shard": rest})
	default:
		writeAdminFail(w, http.StatusMethodNotAllowed, "method_not_allowed", "unsupported method for path")
	}
}

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	shardsFlag := flag.String("shards", "",
		"remote shards as id=url pairs, e.g. a=http://node1:8080,b=http://node2:8080")
	local := flag.Int("local", 0, "run N in-process shards instead of remote ones")
	wireAddr := flag.String("wire-addr", "",
		"serve the binary wire protocol on this additional listener, advertised at GET /wire (empty disables)")
	transferToken := flag.String("transfer-token", "",
		"admin token(s) for the privileged count-preserving transfer endpoint, comma-separated for rotation: all are accepted by this router, the first is presented to remote shards (empty disables the endpoint; migration then re-sends publicly, resetting delivery counts)")
	slow := flag.Duration("slow", 0,
		"log requests slower than this, keyed by X-Trace-Id (0 disables)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	autoscale := flag.Bool("autoscale", false,
		"enable the shard-fleet autoscaler: split hot groups, weight ring arcs by load, and add/remove shards from the reserve (then in-process spawns with -local)")
	splitThreshold := flag.Float64("split-threshold", 0,
		"group request rate (req/s) past which the autoscaler splits it across sub-arcs (0 = policy default)")
	autoMin := flag.Int("autoscale-min", 0, "autoscaler fleet floor (0 = the starting fleet)")
	autoMax := flag.Int("autoscale-max", 0, "autoscaler fleet cap (0 = policy default)")
	autoTarget := flag.Float64("autoscale-target", 0,
		"request rate one shard is provisioned for, the fleet-utilization denominator (0 = policy default)")
	autoReserve := flag.String("autoscale-reserve", "",
		"pre-provisioned shards the autoscaler may bring onto the ring, as id=url pairs (consumed in order before any in-process spawn)")
	durable := flag.Bool("durable", false,
		"journal every in-process shard's accepted mutations write-ahead to a shared blob store, so exact shard state (depths, delivery counts, live receipts) survives a crash (requires -local)")
	snapshotEvery := flag.Int("snapshot-every", 0,
		"journaled records between snapshots on durable shards, bounding recovery replay (0 = default 4096, negative disables compaction)")
	replicate := flag.Bool("replicate", false,
		"run a warm follower per durable in-process shard, continuously replaying its journal, and register it as the shard's failover standby (requires -durable)")
	healthInterval := flag.Duration("health-interval", 0,
		"probe shards that have standbys at this interval and fail dead ones over to their caught-up follower automatically (0 disables; failover stays available via POST /admin/failover)")
	flag.Parse()

	remotes, err := parseShards(*shardsFlag)
	if err != nil {
		log.Fatalf("queuerouter: -shards: %v", err)
	}
	if len(remotes) == 0 && *local <= 0 {
		log.Fatal("queuerouter: need -shards or -local N")
	}
	if *durable && *local <= 0 {
		log.Fatal("queuerouter: -durable journals in-process shards; it requires -local N (remote shards journal on their own nodes)")
	}
	if *replicate && !*durable {
		log.Fatal("queuerouter: -replicate needs -durable (a follower replays the primary's journal)")
	}
	tokens := splitTokens(*transferToken)
	presentToken := ""
	if len(tokens) > 0 {
		presentToken = tokens[0]
	}

	reg := telemetry.NewRegistry()
	router := shard.NewRouter(shard.Config{Metrics: reg})
	defer router.Close()
	for id, url := range remotes {
		backend, desc := dialShard(url, presentToken, reg)
		if err := router.AddShard(id, backend); err != nil {
			log.Fatalf("queuerouter: add shard %q: %v", id, err)
		}
		log.Printf("queuerouter: shard %q -> %s", id, desc)
	}
	// Durable mode journals every local shard into one shared blob
	// store (standing in for the storage web service a real deployment
	// would share), one journal object per shard.
	var journalStore *blob.Store
	if *durable {
		journalStore = blob.NewStore(blob.Config{Metrics: reg})
	}
	for i := 0; i < *local; i++ {
		id := fmt.Sprintf("local%d", i)
		cfg := queue.Config{
			Seed: int64(i + 1), Metrics: reg, MetricsName: id,
		}
		if journalStore != nil {
			cfg.Durability = &queue.Durability{
				Store:         journalStore,
				Bucket:        "queue-journal",
				Key:           "shard-" + id,
				SnapshotEvery: *snapshotEvery,
			}
		}
		svc := queue.NewService(cfg)
		if journalStore != nil {
			if err := svc.Recover(); err != nil {
				log.Fatalf("queuerouter: recover shard %q: %v", id, err)
			}
		}
		if err := router.AddShard(id, svc); err != nil {
			log.Fatalf("queuerouter: add shard %q: %v", id, err)
		}
		if *replicate {
			// The follower shares the journal config but not the
			// metrics name: until promoted it only folds records, and
			// after promotion its traffic counts against the shard id
			// it replaces.
			fcfg := cfg
			fcfg.Metrics, fcfg.MetricsName = nil, ""
			follower, err := queue.NewFollower(fcfg)
			if err != nil {
				log.Fatalf("queuerouter: follower for shard %q: %v", id, err)
			}
			poll := *healthInterval
			if poll <= 0 {
				poll = 250 * time.Millisecond
			}
			follower.Start(poll)
			if err := router.SetStandby(id, follower.PromoteAPI); err != nil {
				log.Fatalf("queuerouter: standby for shard %q: %v", id, err)
			}
		}
		switch {
		case *replicate:
			log.Printf("queuerouter: shard %q (in-process, durable, replicated)", id)
		case *durable:
			log.Printf("queuerouter: shard %q (in-process, durable)", id)
		default:
			log.Printf("queuerouter: shard %q (in-process)", id)
		}
	}
	if *healthInterval > 0 {
		router.StartHealthChecks(*healthInterval)
		log.Printf("queuerouter: health checks every %s", *healthInterval)
	}

	var auto *shard.Autoscaler
	if *autoscale {
		minShards := *autoMin
		if minShards <= 0 {
			minShards = len(router.Shards())
		}
		reserves, err := parseShards(*autoReserve)
		if err != nil {
			log.Fatalf("queuerouter: -autoscale-reserve: %v", err)
		}
		var reserve []shard.ReserveShard
		for _, id := range sortedStringKeys(reserves) {
			backend, desc := dialShard(reserves[id], presentToken, reg)
			reserve = append(reserve, shard.ReserveShard{ID: id, Backend: backend})
			log.Printf("queuerouter: reserve shard %q -> %s", id, desc)
		}
		var factory shard.ShardFactory
		if *local > 0 {
			// Local mode can mint capacity on demand; a remote-only
			// deployment scales within its provisioned reserve.
			factory = func(id string) (queue.API, error) {
				return queue.NewService(queue.Config{Metrics: reg, MetricsName: id}), nil
			}
		}
		auto = shard.NewAutoscaler(router, shard.AutoscalerConfig{
			Policy: shard.AutoscalePolicy{
				MinShards:          minShards,
				MaxShards:          *autoMax,
				TargetRatePerShard: *autoTarget,
				SplitRate:          *splitThreshold,
			},
			Reserve: reserve,
			Factory: factory,
			Metrics: reg,
		})
		auto.Start()
		defer auto.Close()
		log.Printf("queuerouter: autoscaler enabled (min %d, reserve %d, local spawn %v)",
			minShards, len(reserve), factory != nil)
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("queuerouter: pprof enabled on /debug/pprof/")
	}
	mux.Handle("/admin/", &adminHandler{router: router, metrics: reg, auto: auto, transferToken: presentToken})
	qh := &queue.HTTPHandler{
		Service:     router,
		AdminTokens: tokens,
		SlowRequest: *slow,
		Metrics:     reg,
	}
	if *wireAddr != "" {
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatalf("queuerouter: -wire-addr: %v", err)
		}
		ws := &wire.Server{Service: router, AdminTokens: tokens, Metrics: reg}
		go func() {
			if err := ws.Serve(ln); err != nil && !errors.Is(err, wire.ErrServerClosed) {
				log.Fatalf("queuerouter: wire listener: %v", err)
			}
		}()
		qh.WireAddr = ln.Addr().String()
		log.Printf("queuerouter: wire protocol on %s", ln.Addr())
	}
	mux.Handle("/", qh)
	log.Printf("queuerouter: listening on %s with %d shard(s)", *addr, len(router.Shards()))
	if err := http.ListenAndServe(*addr, mux); err != nil {
		log.Fatal(err)
	}
}

// sortedStringKeys orders a map's keys so reserve shards join the ring
// in a stable order across restarts.
func sortedStringKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// splitTokens decodes the comma-separated -transfer-token list, dropping
// empty entries.
func splitTokens(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}
