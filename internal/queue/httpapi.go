package queue

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/telemetry"
)

// HTTPHandler exposes a Service through an SQS-shaped REST interface —
// "a REST-based web service interface that enables any HTTP capable
// client to use it" (Section 2.1.1):
//
//	GET    /q                                list queues ({"queues": [...]})
//	GET    /requests                         total billed requests ({"requests": n})
//	GET    /wire                             advertised wire endpoint ({"addr": "host:port"}; 404 when none)
//	PUT    /q/{name}                         create queue
//	DELETE /q/{name}                         delete queue
//	GET    /q/{name}/count                   approximate counts (JSON)
//	GET    /q/{name}/requests                billed requests for one queue
//	POST   /q/{name}/purge                   drop every message
//	POST   /q/{name}/messages                send (body = message)
//	GET    /q/{name}/messages?visibility=30s receive (JSON; 204 when empty)
//	       &wait=1s                          … long poll up to wait
//	       &max=10                           … batch receive ({"messages": [...]})
//	POST   /q/{name}/messages/batch          batch send ({"bodies": [...]} → {"ids": [...]})
//	POST   /q/{name}/messages/batchdelete    batch delete ({"receipts": [...]} → {"errors": [...]})
//	DELETE /q/{name}/messages/{receipt}      delete by receipt handle
//	POST   /q/{name}/messages/{receipt}/visibility?d=1m  change visibility
//	POST   /q/{name}/transfer                privileged count-preserving transfer
//	                                         ({"items": [{"body","receives"}]} → {"ids": [...]})
//
// Queue names and receipt handles are path-escaped on the wire, so a
// placement-grouped name like "job-1/tasks" stays one path segment
// ("job-1%2Ftasks").
//
// The transfer endpoint is the privileged admin surface: it is served
// only when AdminTokens is configured AND the request carries one of
// them as a bearer token; every other caller gets 403
// (ErrNotPrivileged on the client side). Everything else is the public
// client path.
//
// Service is any queue.API implementation — a local Service or a
// shard router — so one handler serves both a single queue node and a
// sharded front.
type HTTPHandler struct {
	Service API
	// AdminTokens provisions the privileged transfer endpoint: requests
	// must present "Authorization: Bearer <token>" for one of them.
	// None (or only empty entries) leaves the endpoint disabled (always
	// 403) — the privileged surface must be opted into, never open by
	// default. Several tokens are the rotation mechanism: provision
	// old+new everywhere, switch clients to the new one, then drop the
	// old — no fleet-wide restart window in which transfers 403. Order
	// does not matter for acceptance; clients present exactly one token
	// (by convention the newest).
	AdminTokens []string

	// WireAddr, when set, is advertised at GET /wire: the address of
	// the binary wire-protocol listener serving the same queue
	// namespace. Clients that understand the wire face (wire.DiscoverAddr,
	// the shard router's backend probe) upgrade to it; everyone else
	// keeps speaking JSON. Empty disables the advertisement (404).
	WireAddr string

	// Every request is tagged with a trace ID: the telemetry.TraceHeader
	// request header when present (propagated from an upstream hop), a
	// freshly generated one otherwise. The ID is echoed on the response
	// and handed to the Service when it implements TraceScoper, so a
	// sharded front forwards it to the owning shard.

	// SlowRequest, when > 0, logs any request slower than it to the
	// process default logger, keyed by trace ID — the "why was this
	// call slow" breadcrumb that works across hops because every hop
	// logs the same ID.
	SlowRequest time.Duration
	// Metrics, when set, records whole-request HTTP latency
	// (queue_http_ns) including JSON marshalling — the server-side view
	// a remote client actually experiences.
	Metrics *telemetry.Registry

	metOnce sync.Once
	httpNS  *telemetry.Histogram
}

// wireMessage is the receive-response body.
type wireMessage struct {
	ID       string `json:"id"`
	Body     []byte `json:"body"`
	Receipt  string `json:"receipt"`
	Receives int    `json:"receives"`
}

// ServeHTTP implements http.Handler: it resolves the request's trace
// ID, echoes it, times the request, and dispatches through a view of
// the handler whose Service is trace-scoped when the backend supports
// it (shard.Router, nested HTTPClient) — that is how the ID survives
// the client → router → shard chain.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace := r.Header.Get(telemetry.TraceHeader)
	if trace == "" {
		trace = telemetry.NewTraceID()
	}
	w.Header().Set(telemetry.TraceHeader, trace)
	var start time.Time
	if h.SlowRequest > 0 || h.Metrics != nil {
		start = time.Now()
	}
	svc := h.Service
	if ts, ok := svc.(TraceScoper); ok {
		svc = ts.WithTrace(trace)
	}
	h.dispatch(w, r, svc)
	if start.IsZero() {
		return
	}
	elapsed := time.Since(start)
	if h.Metrics != nil {
		h.metOnce.Do(func() { h.httpNS = h.Metrics.Histogram("queue_http_ns") })
		h.httpNS.Observe(elapsed)
	}
	if h.SlowRequest > 0 && elapsed >= h.SlowRequest {
		log.Printf("queue: slow request trace=%s %s %s %v", trace, r.Method, r.URL.Path, elapsed)
	}
}

// dispatch routes one request; svc is the (possibly trace-scoped) view
// of h.Service every operation goes through.
func (h *HTTPHandler) dispatch(w http.ResponseWriter, r *http.Request, svc API) {
	if r.URL.Path == "/requests" {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, map[string]int64{"requests": svc.APIRequests()})
		return
	}
	if r.URL.Path == "/wire" {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if h.WireAddr == "" {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, map[string]string{"addr": h.WireAddr})
		return
	}
	if r.URL.Path == "/q" || r.URL.Path == "/q/" {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, map[string][]string{"queues": svc.ListQueues()})
		return
	}
	// Parse the escaped path: a queue name containing '/' (a placement
	// group key) travels as one %2F-escaped segment, which the decoded
	// r.URL.Path cannot distinguish from a path separator.
	rest, ok := strings.CutPrefix(r.URL.EscapedPath(), "/q/")
	if !ok || rest == "" {
		http.Error(w, "queue: missing queue name", http.StatusBadRequest)
		return
	}
	parts := strings.SplitN(rest, "/", 4)
	name, err := url.PathUnescape(parts[0])
	if err != nil || name == "" {
		http.Error(w, "queue: bad queue name", http.StatusBadRequest)
		return
	}
	unescapeReceipt := func(seg string) (string, bool) {
		receipt, err := url.PathUnescape(seg)
		if err != nil {
			http.Error(w, "queue: bad receipt handle", http.StatusBadRequest)
			return "", false
		}
		return receipt, true
	}
	switch {
	case len(parts) == 1:
		h.serveQueue(w, r, svc, name)
	case parts[1] == "count" && len(parts) == 2:
		h.serveCount(w, r, svc, name)
	case parts[1] == "requests" && len(parts) == 2:
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, map[string]int64{"requests": svc.APIRequestsFor(name)})
	case parts[1] == "purge" && len(parts) == 2:
		h.servePurge(w, r, svc, name)
	case parts[1] == "transfer" && len(parts) == 2:
		h.serveTransfer(w, r, svc, name)
	case parts[1] == "messages" && len(parts) == 2:
		h.serveMessages(w, r, svc, name)
	case parts[1] == "messages" && len(parts) == 3 && parts[2] == "batch":
		h.serveSendBatch(w, r, svc, name)
	case parts[1] == "messages" && len(parts) == 3 && parts[2] == "batchdelete":
		h.serveDeleteBatch(w, r, svc, name)
	case parts[1] == "messages" && len(parts) == 3:
		if receipt, ok := unescapeReceipt(parts[2]); ok {
			h.serveReceipt(w, r, svc, name, receipt)
		}
	case parts[1] == "messages" && len(parts) == 4 && parts[3] == "visibility":
		if receipt, ok := unescapeReceipt(parts[2]); ok {
			h.serveVisibility(w, r, svc, name, receipt)
		}
	default:
		http.NotFound(w, r)
	}
}

func (h *HTTPHandler) serveQueue(w http.ResponseWriter, r *http.Request, svc API, name string) {
	switch r.Method {
	case http.MethodPut:
		err := svc.CreateQueue(name)
		if errors.Is(err, ErrQueueExists) {
			w.WriteHeader(http.StatusOK)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodDelete:
		if err := svc.DeleteQueue(name); err != nil {
			writeQueueError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (h *HTTPHandler) serveCount(w http.ResponseWriter, r *http.Request, svc API, name string) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	visible, inflight, err := svc.ApproximateCount(name)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	writeJSON(w, map[string]int{"visible": visible, "inflight": inflight})
}

// servePurge drops every message in the queue.
func (h *HTTPHandler) servePurge(w http.ResponseWriter, r *http.Request, svc API, name string) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := svc.Purge(name); err != nil {
		writeQueueError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// serveTransfer is the privileged count-preserving enqueue the shard
// migration machinery uses. It requires the handler's admin token; the
// Service must implement Transferrer (every in-tree implementation
// does).
func (h *HTTPHandler) serveTransfer(w http.ResponseWriter, r *http.Request, svc API, name string) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	token, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || !TokenAccepted(h.AdminTokens, token) {
		// One answer for "endpoint not provisioned", "no token", and
		// "wrong token": the caller learns only that it is not
		// privileged, not which secret would have worked.
		http.Error(w, ErrNotPrivileged.Error(), http.StatusForbidden)
		return
	}
	tr, ok := svc.(Transferrer)
	if !ok {
		http.Error(w, "queue: backend does not support transfers", http.StatusNotImplemented)
		return
	}
	var in struct {
		Items []TransferItem `json:"items"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		http.Error(w, "queue: bad transfer body: "+err.Error(), http.StatusBadRequest)
		return
	}
	ids, err := tr.TransferInBatch(name, in.Items)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string][]string{"ids": ids})
}

// TokenAccepted reports whether the presented admin token matches any
// non-empty entry of provisioned. Every candidate is compared in
// constant time with no early exit, so timing reveals neither a match
// nor which entry matched. No provisioned tokens means nothing is
// accepted. HTTPHandler and the wire server share it so both faces
// gate transfers identically.
func TokenAccepted(provisioned []string, token string) bool {
	match := 0
	for _, t := range provisioned {
		if t == "" {
			continue
		}
		match |= subtle.ConstantTimeCompare([]byte(token), []byte(t))
	}
	return match == 1
}

func (h *HTTPHandler) serveMessages(w http.ResponseWriter, r *http.Request, svc API, name string) {
	switch r.Method {
	case http.MethodPost:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := svc.SendMessage(name, body)
		if err != nil {
			writeQueueError(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, map[string]string{"id": id})
	case http.MethodGet:
		var visibility, wait time.Duration
		if v := r.URL.Query().Get("visibility"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				http.Error(w, "queue: bad visibility: "+err.Error(), http.StatusBadRequest)
				return
			}
			visibility = d
		}
		if v := r.URL.Query().Get("wait"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				http.Error(w, "queue: bad wait: "+err.Error(), http.StatusBadRequest)
				return
			}
			wait = d
		}
		if v := r.URL.Query().Get("max"); v != "" {
			max, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "queue: bad max: "+err.Error(), http.StatusBadRequest)
				return
			}
			msgs, err := svc.ReceiveMessageBatch(name, visibility, max, wait)
			if err != nil {
				writeQueueError(w, err)
				return
			}
			if len(msgs) == 0 {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			out := make([]wireMessage, len(msgs))
			for i, m := range msgs {
				out[i] = wireMessage{ID: m.ID, Body: m.Body, Receipt: m.ReceiptHandle, Receives: m.Receives}
			}
			writeJSON(w, map[string][]wireMessage{"messages": out})
			return
		}
		m, ok, err := svc.ReceiveMessageWait(name, visibility, wait)
		if err != nil {
			writeQueueError(w, err)
			return
		}
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, wireMessage{ID: m.ID, Body: m.Body, Receipt: m.ReceiptHandle, Receives: m.Receives})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// serveSendBatch enqueues up to MaxBatch bodies as one billed request.
func (h *HTTPHandler) serveSendBatch(w http.ResponseWriter, r *http.Request, svc API, name string) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var in struct {
		Bodies [][]byte `json:"bodies"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		http.Error(w, "queue: bad batch body: "+err.Error(), http.StatusBadRequest)
		return
	}
	ids, err := svc.SendMessageBatch(name, in.Bodies)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string][]string{"ids": ids})
}

// serveDeleteBatch acknowledges up to MaxBatch receipts as one billed
// request. The response carries one error string per entry ("" = ok) so
// partial failures are visible without failing the call.
func (h *HTTPHandler) serveDeleteBatch(w http.ResponseWriter, r *http.Request, svc API, name string) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var in struct {
		Receipts []string `json:"receipts"`
	}
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		http.Error(w, "queue: bad batch body: "+err.Error(), http.StatusBadRequest)
		return
	}
	results, err := svc.DeleteMessageBatch(name, in.Receipts)
	if err != nil {
		writeQueueError(w, err)
		return
	}
	out := make([]string, len(results))
	for i, e := range results {
		switch {
		case e == nil:
		case errors.Is(e, ErrStaleReceipt):
			// A stable code, not prose: the client maps it back to the
			// sentinel without matching error text.
			out[i] = staleReceiptCode
		default:
			out[i] = e.Error()
		}
	}
	writeJSON(w, map[string][]string{"errors": out})
}

// staleReceiptCode is the wire encoding of ErrStaleReceipt in batch
// delete responses.
const staleReceiptCode = "stale"

func (h *HTTPHandler) serveReceipt(w http.ResponseWriter, r *http.Request, svc API, name, receipt string) {
	if r.Method != http.MethodDelete {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := svc.DeleteMessage(name, receipt); err != nil {
		writeQueueError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *HTTPHandler) serveVisibility(w http.ResponseWriter, r *http.Request, svc API, name, receipt string) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	d, err := time.ParseDuration(r.URL.Query().Get("d"))
	if err != nil {
		http.Error(w, "queue: bad duration: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := svc.ChangeVisibility(name, receipt, d); err != nil {
		writeQueueError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func writeQueueError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoSuchQueue):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrStaleReceipt):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrNotPrivileged):
		http.Error(w, err.Error(), http.StatusForbidden)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPClient speaks the HTTPHandler protocol. It implements the full
// queue.API, so a remote queue node is interchangeable with a local
// Service everywhere consumers take the interface — including as a
// shard behind shard.Router.
type HTTPClient struct {
	BaseURL string
	Client  *http.Client
	// AdminToken authorizes the privileged transfer endpoint. Leave
	// empty for a purely public client: TransferIn then fails with
	// ErrNotPrivileged (and the shard migrator falls back to a public
	// re-send). When the server rotates tokens (HTTPHandler.AdminTokens)
	// the client presents exactly one — by convention the newest.
	AdminToken string

	// trace, set only through WithTrace, is injected as the
	// telemetry.TraceHeader on every request, tying this client's
	// traffic to one trace across hops.
	trace string
}

var (
	_ API         = (*HTTPClient)(nil)
	_ Transferrer = (*HTTPClient)(nil)
	_ TraceScoper = (*HTTPClient)(nil)
)

// WithTrace returns a view of the client whose requests carry traceID.
// The copy shares the underlying http.Client (and its connection pool);
// it is cheap enough to create per request.
func (c *HTTPClient) WithTrace(traceID string) API {
	scoped := *c
	scoped.trace = traceID
	return &scoped
}

func (c *HTTPClient) httpClient() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	// The shared tuned client, not http.DefaultClient: the default
	// transport's 2 idle connections per host starve any deployment
	// with real worker concurrency (see package httpx).
	return httpx.Client
}

// do sends a request, stamping the trace header first. Every outgoing
// request of the client funnels through here so no hop drops the ID.
func (c *HTTPClient) do(req *http.Request) (*http.Response, error) {
	if c.trace != "" {
		req.Header.Set(telemetry.TraceHeader, c.trace)
	}
	return c.httpClient().Do(req)
}

// get is http.Client.Get through do.
func (c *HTTPClient) get(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

// post is http.Client.Post through do.
func (c *HTTPClient) post(url, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.do(req)
}

// qURL builds the base URL of one queue, path-escaping the name so a
// placement-grouped name ("job-1/tasks") travels as a single segment.
func (c *HTTPClient) qURL(name string) string {
	return c.BaseURL + "/q/" + url.PathEscape(name)
}

// statusErr converts a failed response into an error wrapping the
// sentinel the status code encodes, so errors.Is(err, ErrNoSuchQueue)
// and errors.Is(err, ErrStaleReceipt) hold across the HTTP boundary.
func statusErr(op, name string, resp *http.Response) error {
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("queue: %s %s: %w", op, name, ErrNoSuchQueue)
	case http.StatusConflict:
		return fmt.Errorf("queue: %s %s: %w", op, name, ErrStaleReceipt)
	case http.StatusForbidden:
		return fmt.Errorf("queue: %s %s: %w", op, name, ErrNotPrivileged)
	}
	return fmt.Errorf("queue: %s %s: %s", op, name, resp.Status)
}

// CreateQueue creates (idempotently) a queue.
func (c *HTTPClient) CreateQueue(name string) error {
	req, err := http.NewRequest(http.MethodPut, c.qURL(name), nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return statusErr("create", name, resp)
	}
	return nil
}

// DeleteQueue removes a queue and its messages.
func (c *HTTPClient) DeleteQueue(name string) error {
	req, err := http.NewRequest(http.MethodDelete, c.qURL(name), nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return statusErr("delete queue", name, resp)
	}
	return nil
}

// ListQueues returns the queue names, or nil when the request fails
// (the interface carries no error return, matching Service).
func (c *HTTPClient) ListQueues() []string {
	resp, err := c.get(c.BaseURL + "/q")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var out struct {
		Queues []string `json:"queues"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil
	}
	return out.Queues
}

// ApproximateCount reports visible and in-flight message counts.
func (c *HTTPClient) ApproximateCount(name string) (visible, inflight int, err error) {
	resp, err := c.get(c.qURL(name) + "/count")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, statusErr("count", name, resp)
	}
	var out struct {
		Visible  int `json:"visible"`
		Inflight int `json:"inflight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, 0, err
	}
	return out.Visible, out.Inflight, nil
}

// Purge removes every message from a queue.
func (c *HTTPClient) Purge(name string) error {
	resp, err := c.post(c.qURL(name)+"/purge", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return statusErr("purge", name, resp)
	}
	return nil
}

// ChangeVisibility extends or shrinks an in-flight message's lease.
func (c *HTTPClient) ChangeVisibility(name, receipt string, d time.Duration) error {
	resp, err := c.post(
		c.qURL(name)+"/messages/"+url.PathEscape(receipt)+"/visibility?d="+url.QueryEscape(d.String()), "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return statusErr("change visibility", name, resp)
	}
	return nil
}

// requests reads a billed-request counter endpoint, 0 on any failure
// (the interface carries no error return, matching Service).
func (c *HTTPClient) requests(path string) int64 {
	resp, err := c.get(c.BaseURL + path)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0
	}
	var out struct {
		Requests int64 `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0
	}
	return out.Requests
}

// APIRequests returns the remote service's total billed API calls.
func (c *HTTPClient) APIRequests() int64 { return c.requests("/requests") }

// APIRequestsFor returns the billed API calls addressed to one queue.
func (c *HTTPClient) APIRequestsFor(name string) int64 {
	return c.requests("/q/" + url.PathEscape(name) + "/requests")
}

// SendMessage enqueues a message and returns its id.
func (c *HTTPClient) SendMessage(name string, body []byte) (string, error) {
	resp, err := c.post(c.qURL(name)+"/messages", "application/octet-stream",
		strings.NewReader(string(body)))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", statusErr("send to", name, resp)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out["id"], nil
}

// ReceiveMessage pops a message; ok is false when the queue has nothing
// visible.
func (c *HTTPClient) ReceiveMessage(name string, visibility time.Duration) (Message, bool, error) {
	return c.ReceiveMessageWait(name, visibility, 0)
}

// ReceiveMessageWait long-polls for up to wait before returning empty.
func (c *HTTPClient) ReceiveMessageWait(name string, visibility, wait time.Duration) (Message, bool, error) {
	q := url.Values{}
	if visibility > 0 {
		q.Set("visibility", visibility.String())
	}
	if wait > 0 {
		q.Set("wait", wait.String())
	}
	url := c.qURL(name) + "/messages"
	if enc := q.Encode(); enc != "" {
		url += "?" + enc
	}
	resp, err := c.get(url)
	if err != nil {
		return Message{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return Message{}, false, nil
	case http.StatusOK:
		var wm wireMessage
		if err := json.NewDecoder(resp.Body).Decode(&wm); err != nil {
			return Message{}, false, err
		}
		return Message{ID: wm.ID, Body: wm.Body, ReceiptHandle: wm.Receipt, Receives: wm.Receives}, true, nil
	default:
		return Message{}, false, statusErr("receive from", name, resp)
	}
}

// ReceiveMessageBatch receives up to max messages in one request,
// long-polling up to wait. An empty slice means nothing became visible
// in time.
func (c *HTTPClient) ReceiveMessageBatch(name string, visibility time.Duration, max int, wait time.Duration) ([]Message, error) {
	q := url.Values{}
	q.Set("max", strconv.Itoa(max))
	if visibility > 0 {
		q.Set("visibility", visibility.String())
	}
	if wait > 0 {
		q.Set("wait", wait.String())
	}
	resp, err := c.get(c.qURL(name) + "/messages?" + q.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var out struct {
			Messages []wireMessage `json:"messages"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		msgs := make([]Message, len(out.Messages))
		for i, wm := range out.Messages {
			msgs[i] = Message{ID: wm.ID, Body: wm.Body, ReceiptHandle: wm.Receipt, Receives: wm.Receives}
		}
		return msgs, nil
	default:
		return nil, statusErr("batch receive from", name, resp)
	}
}

// SendMessageBatch enqueues up to MaxBatch bodies as one billed request.
func (c *HTTPClient) SendMessageBatch(name string, bodies [][]byte) ([]string, error) {
	payload, err := json.Marshal(map[string][][]byte{"bodies": bodies})
	if err != nil {
		return nil, err
	}
	resp, err := c.post(c.qURL(name)+"/messages/batch",
		"application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, statusErr("batch send to", name, resp)
	}
	var out struct {
		IDs []string `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.IDs, nil
}

// TransferIn enqueues one message with its prior delivery count
// through the remote privileged transfer endpoint (queue.Transferrer).
func (c *HTTPClient) TransferIn(name string, body []byte, receives int) (string, error) {
	ids, err := c.TransferInBatch(name, []TransferItem{{Body: body, Receives: receives}})
	if err != nil {
		return "", err
	}
	if len(ids) == 0 {
		// A malformed peer answered 201 without ids; don't panic on it.
		return "", fmt.Errorf("queue: transfer into %s: response carried no ids", name)
	}
	return ids[0], nil
}

// TransferInBatch enqueues up to MaxBatch transfer items as one billed
// request through the remote privileged transfer endpoint. The client's
// AdminToken must match the server's or the call fails with
// ErrNotPrivileged; with no token configured at all the call fails
// locally — it cannot possibly succeed, and the shard migrator probes
// this once per batch, so the guaranteed 403 round trip is skipped.
func (c *HTTPClient) TransferInBatch(name string, items []TransferItem) ([]string, error) {
	if len(items) == 0 || len(items) > MaxBatch {
		return nil, ErrBatchSize
	}
	if c.AdminToken == "" {
		return nil, fmt.Errorf("queue: transfer into %s: client has no admin token: %w", name, ErrNotPrivileged)
	}
	payload, err := json.Marshal(map[string][]TransferItem{"items": items})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.qURL(name)+"/transfer", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+c.AdminToken)
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return nil, statusErr("transfer into", name, resp)
	}
	var out struct {
		IDs []string `json:"ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.IDs, nil
}

// DeleteMessageBatch acknowledges up to MaxBatch receipts as one billed
// request, returning one error per entry (nil = deleted).
func (c *HTTPClient) DeleteMessageBatch(name string, receipts []string) ([]error, error) {
	payload, err := json.Marshal(map[string][]string{"receipts": receipts})
	if err != nil {
		return nil, err
	}
	resp, err := c.post(c.qURL(name)+"/messages/batchdelete",
		"application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr("batch delete in", name, resp)
	}
	var out struct {
		Errors []string `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	results := make([]error, len(out.Errors))
	for i, e := range out.Errors {
		switch e {
		case "":
		case staleReceiptCode:
			results[i] = ErrStaleReceipt
		default:
			results[i] = errors.New(e)
		}
	}
	return results, nil
}

// DeleteMessage acknowledges a message by receipt handle.
func (c *HTTPClient) DeleteMessage(name, receipt string) error {
	req, err := http.NewRequest(http.MethodDelete, c.qURL(name)+"/messages/"+url.PathEscape(receipt), nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return statusErr("delete in", name, resp)
	}
	return nil
}
