package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pinot/internal/cluster"
	"pinot/internal/metrics"
	"pinot/internal/segment"
	"pinot/internal/table"
)

func setup(t *testing.T) (*cluster.Cluster, *httptest.Server, *httptest.Server) {
	t.Helper()
	c, err := cluster.NewLocal(cluster.Options{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	leader, err := c.WaitForLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctrlSrv := httptest.NewServer(NewControllerHandler(leader))
	t.Cleanup(ctrlSrv.Close)
	brokerSrv := httptest.NewServer(NewBrokerHandler(c.Broker()))
	t.Cleanup(brokerSrv.Close)
	return c, ctrlSrv, brokerSrv
}

func eventsSchema(t *testing.T) *segment.Schema {
	t.Helper()
	s, err := segment.NewSchema("events", []segment.FieldSpec{
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	return resp, out
}

func TestFullHTTPFlow(t *testing.T) {
	c, ctrlSrv, brokerSrv := setup(t)

	// Health endpoints.
	for _, u := range []string{ctrlSrv.URL + "/health", brokerSrv.URL + "/health"} {
		resp, err := http.Get(u)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("health %s: %v %v", u, resp.StatusCode, err)
		}
		resp.Body.Close()
	}

	// Create table over HTTP.
	cfg := table.Config{Name: "events", Type: table.Offline, Schema: eventsSchema(t), Replicas: 1}
	resp, body := postJSON(t, ctrlSrv.URL+"/tables", cfg)
	if resp.StatusCode != 200 {
		t.Fatalf("create table: %d %v", resp.StatusCode, body)
	}
	// Duplicate rejected.
	resp, _ = postJSON(t, ctrlSrv.URL+"/tables", cfg)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate table status = %d", resp.StatusCode)
	}
	// List tables.
	resp2, err := http.Get(ctrlSrv.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	var tl map[string][]string
	_ = json.NewDecoder(resp2.Body).Decode(&tl)
	resp2.Body.Close()
	if len(tl["tables"]) != 1 || tl["tables"][0] != "events_OFFLINE" {
		t.Fatalf("tables = %v", tl)
	}

	// Upload a segment blob (HTTP POST, paper 3.3.5).
	b, _ := segment.NewBuilder("events", "events_0", eventsSchema(t), segment.IndexConfig{})
	for i := 0; i < 30; i++ {
		_ = b.Add(segment.Row{fmt.Sprintf("c%d", i%3), int64(i)})
	}
	seg, _ := b.Build()
	blob, _ := seg.Marshal()
	resp3, err := http.Post(ctrlSrv.URL+"/segments/events_OFFLINE", "application/octet-stream", bytes.NewReader(blob))
	if err != nil || resp3.StatusCode != 200 {
		t.Fatalf("upload: %v %d", err, resp3.StatusCode)
	}
	resp3.Body.Close()
	if err := c.WaitForOnline("events_OFFLINE", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Segment listing.
	resp4, _ := http.Get(ctrlSrv.URL + "/tables/events_OFFLINE/segments")
	var sl map[string][]table.SegmentMeta
	_ = json.NewDecoder(resp4.Body).Decode(&sl)
	resp4.Body.Close()
	if len(sl["segments"]) != 1 || sl["segments"][0].NumDocs != 30 {
		t.Fatalf("segments = %+v", sl)
	}

	// Query through the broker.
	resp, qb := postJSON(t, brokerSrv.URL+"/query", QueryRequest{PQL: "SELECT count(*), sum(clicks) FROM events"})
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d %v", resp.StatusCode, qb)
	}
	rows := qb["rows"].([]any)
	first := rows[0].([]any)
	if first[0].(float64) != 30 || first[1].(float64) != 435 {
		t.Fatalf("query rows = %v", rows)
	}

	// Malformed requests.
	resp, _ = postJSON(t, brokerSrv.URL+"/query", QueryRequest{PQL: ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty pql status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, brokerSrv.URL+"/query", QueryRequest{PQL: "SELECT nonsense"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pql status = %d", resp.StatusCode)
	}
	r5, err := http.Post(brokerSrv.URL+"/query", "application/json", bytes.NewReader([]byte("{")))
	if err != nil || r5.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json status: %v %d", err, r5.StatusCode)
	}
	r5.Body.Close()

	// Bad upload blob.
	r6, _ := http.Post(ctrlSrv.URL+"/segments/events_OFFLINE", "application/octet-stream", bytes.NewReader([]byte("garbage")))
	if r6.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload status = %d", r6.StatusCode)
	}
	r6.Body.Close()

	// Schedule a task over HTTP.
	resp, body = postJSON(t, ctrlSrv.URL+"/tasks", map[string]any{
		"id": "t1", "type": "purge", "resource": "events_OFFLINE", "segment": "events_0",
		"purgeColumn": "country", "purgeValues": []string{"c0"},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("task: %d %v", resp.StatusCode, body)
	}
	r7, _ := http.Get(ctrlSrv.URL + "/tasks")
	var tb map[string]any
	_ = json.NewDecoder(r7.Body).Decode(&tb)
	r7.Body.Close()
	if len(tb["tasks"].([]any)) != 1 {
		t.Fatalf("tasks = %v", tb)
	}

	// Delete segment and table.
	req, _ := http.NewRequest(http.MethodDelete, ctrlSrv.URL+"/segments/events_OFFLINE/events_0", nil)
	r8, err := http.DefaultClient.Do(req)
	if err != nil || r8.StatusCode != 200 {
		t.Fatalf("delete segment: %v %d", err, r8.StatusCode)
	}
	r8.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, ctrlSrv.URL+"/tables/events?type=OFFLINE", nil)
	r9, err := http.DefaultClient.Do(req)
	if err != nil || r9.StatusCode != 200 {
		t.Fatalf("delete table: %v %d", err, r9.StatusCode)
	}
	r9.Body.Close()
	req, _ = http.NewRequest(http.MethodDelete, ctrlSrv.URL+"/tables/events", nil)
	r10, _ := http.DefaultClient.Do(req)
	if r10.StatusCode != http.StatusBadRequest {
		t.Fatalf("delete without type status = %d", r10.StatusCode)
	}
	r10.Body.Close()
}

func TestNonLeaderReturns503(t *testing.T) {
	c, err := cluster.NewLocal(cluster.Options{Controllers: 2, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	var follower *httptest.Server
	for _, ctrl := range c.Controllers {
		if !ctrl.IsLeader() {
			follower = httptest.NewServer(NewControllerHandler(ctrl))
			break
		}
	}
	if follower == nil {
		t.Fatal("no follower controller")
	}
	defer follower.Close()
	cfg := table.Config{Name: "events", Type: table.Offline, Schema: eventsSchema(t), Replicas: 1}
	resp, _ := postJSON(t, follower.URL+"/tables", cfg)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower status = %d, want 503", resp.StatusCode)
	}
}

// TestServerHandler: a standalone server's handler serves its registry, its
// health and the runtime profiles.
func TestServerHandler(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("pinot_server_docs_scanned_total", "Documents scanned.", "instance").With("server1").Add(7)
	srv := httptest.NewServer(NewServerHandler(reg))
	t.Cleanup(srv.Close)
	for path, want := range map[string]string{
		"/metrics":             `pinot_server_docs_scanned_total{instance="server1"} 7`,
		"/health":              "",
		"/debug/pprof/":        "goroutine",
		"/debug/pprof/cmdline": "",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: %d, want 200 carrying %q:\n%s", path, resp.StatusCode, want, body)
		}
	}
}
