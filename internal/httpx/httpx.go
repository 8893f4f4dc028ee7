// Package httpx holds the process-wide tuned HTTP client shared by
// every JSON-face client in the repo (queue.HTTPClient,
// broker.HTTPClient when none is injected).
//
// The default net/http transport keeps only 2 idle connections per
// host, so a benchmark or broker deployment running hundreds of
// concurrent workers against one queue node churns through ephemeral
// connections — TIME_WAIT buildup, handshake latency on the hot path,
// and an HTTP-vs-wire comparison that mostly measures connection
// starvation rather than encoding cost. One shared transport with an
// idle pool sized past any realistic worker concurrency fixes all
// three, and sharing a single transport (rather than one per client
// value) keeps the process's connection pool — and its file
// descriptors — bounded and reusable across trace-scoped client
// copies.
package httpx

import (
	"net/http"
	"time"
)

// Transport is the shared tuned transport. MaxIdleConnsPerHost is
// sized for the repo's worst case — benchmarks run up to 512 workers
// against a single router host — so steady-state traffic never
// re-handshakes.
var Transport = &http.Transport{
	MaxIdleConns:        1024,
	MaxIdleConnsPerHost: 512,
	IdleConnTimeout:     90 * time.Second,
}

// Client is the shared client over Transport. It deliberately sets no
// overall request timeout: queue long polls legitimately block for the
// caller-chosen wait, and per-call deadlines belong to the call sites
// that know them.
var Client = &http.Client{Transport: Transport}
