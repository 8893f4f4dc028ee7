package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/broker"
	"repro/internal/catalog"
	"repro/internal/classiccloud"
	"repro/internal/queue"
	"repro/internal/telemetry"
)

// The catalog shares brokerd's one address with the broker API.
func TestMuxServesCatalogBesideBroker(t *testing.T) {
	reg := telemetry.NewRegistry()
	env := classiccloud.Env{Blob: blob.NewStore(blob.Config{}), Queue: queue.NewService(queue.Config{})}
	cal, err := catalog.Open(catalog.Config{Store: env.Blob})
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Record("cap3", "aws/Large", []time.Duration{time.Second}); err != nil {
		t.Fatal(err)
	}
	b := broker.New(broker.Config{Env: env, Metrics: reg, Calibration: cal})
	defer b.Close()
	srv := httptest.NewServer(newMux(reg, b, cal, false))
	defer srv.Close()

	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", path, ct)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	var all []catalog.AppReport
	get("/catalog", &all)
	if len(all) != 1 {
		t.Errorf("GET /catalog: %d apps, want 1", len(all))
	}
	var one catalog.AppReport
	get("/catalog/cap3", &one)
	if one.App != "cap3" || len(one.Rows) != 1 {
		t.Errorf("GET /catalog/cap3: %+v, want one cap3 row", one)
	}
	var jobs []broker.Status
	get("/jobs", &jobs)
	if len(jobs) != 0 {
		t.Errorf("GET /jobs: %d jobs, want 0", len(jobs))
	}
}
