package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"pinot/internal/helix"
	"pinot/internal/segment"
	"pinot/internal/table"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

// buildPinot compiles the pinot binary once into a temp dir.
func buildPinot(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pinot")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a loopback port and releases it for a child process.
func freeAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// startProc launches one pinot process, teeing its output to the test log
// directory so failures are debuggable.
func startProc(t *testing.T, bin, name, logDir string, args ...string) *exec.Cmd {
	t.Helper()
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		logf.Close()
	})
	return cmd
}

func waitHealthy(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", url)
}

// e2eResponse mirrors the broker's JSON query response.
type e2eResponse struct {
	Rows             [][]any  `json:"rows"`
	Partial          bool     `json:"partial"`
	Exceptions       []string `json:"exceptions"`
	ServersQueried   int      `json:"serversQueried"`
	ServersResponded int      `json:"serversResponded"`
}

func postQuery(brokerURL, pqlText string) (*e2eResponse, error) {
	body, _ := json.Marshal(map[string]string{"pql": pqlText})
	resp, err := http.Post(brokerURL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("query status %d", resp.StatusCode)
	}
	var out e2eResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func e2eBlob(t *testing.T, name string, start, n int) []byte {
	t.Helper()
	s, err := segment.NewSchema("events", []segment.FieldSpec{
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := segment.NewBuilder("events", name, s, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	countries := []string{"us", "de", "fr"}
	for i := start; i < start+n; i++ {
		if err := b.Add(segment.Row{countries[i%3], int64(i), int64(100 + i%5)}); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := seg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestMultiProcessKillNineMidScatter runs a controller, two servers and a
// broker as separate OS processes over the TCP metadata and data planes,
// loads an unreplicated offline table, then kill -9s one server while a
// query is mid-scatter. The broker must return an explicitly partial result
// — never an error, never silently wrong data — and the dead server's
// ephemeral session must be reaped by the metadata endpoint.
func TestMultiProcessKillNineMidScatter(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	bin := buildPinot(t)
	logDir := t.TempDir()
	objDir := t.TempDir()
	zkAddr := freeAddr(t)
	ctrlHTTP := freeAddr(t)
	brokerHTTP := freeAddr(t)

	startProc(t, bin, "controller", logDir,
		"-role", "controller", "-zk-listen", zkAddr, "-objstore-dir", objDir,
		"-controller-addr", ctrlHTTP, "-transport-addr", "127.0.0.1:0")
	ctrlURL := "http://" + ctrlHTTP
	waitHealthy(t, ctrlURL, 10*time.Second)
	checkLeaderResolves(t, zkAddr, loggedAddr(t, filepath.Join(logDir, "controller.log"), "completion data plane on "))

	// A deliberate per-query delay on the servers widens the window in
	// which the kill lands mid-scatter.
	const queryDelay = 400 * time.Millisecond
	serverArgs := func(instance string) []string {
		return []string{"-role", "server", "-instance", instance, "-zk", zkAddr,
			"-objstore-dir", objDir, "-transport-addr", "127.0.0.1:0",
			"-debug-query-delay", queryDelay.String()}
	}
	// server1's HTTP API gets a chosen address; server2 keeps the default, a
	// free loopback port it logs.
	server1HTTP := freeAddr(t)
	startProc(t, bin, "server1", logDir, append(serverArgs("server1"), "-server-addr", server1HTTP)...)
	victim := startProc(t, bin, "server2", logDir, serverArgs("server2")...)

	startProc(t, bin, "broker", logDir,
		"-role", "broker", "-instance", "broker1", "-zk", zkAddr, "-broker-addr", brokerHTTP)
	brokerURL := "http://" + brokerHTTP
	waitHealthy(t, brokerURL, 10*time.Second)

	// Table with one replica per segment: losing a server must lose data,
	// so a masked (retried) recovery is impossible and partial is the only
	// correct answer.
	cfgJSON, err := json.Marshal(&table.Config{
		Name: "events", Type: table.Offline,
		Schema: func() *segment.Schema {
			s, _ := segment.NewSchema("events", []segment.FieldSpec{
				{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
				{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
				{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
			})
			return s
		}(),
		Replicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ctrlURL+"/tables", "application/json", bytes.NewReader(cfgJSON))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("create table: status %d", resp.StatusCode)
	}
	for i := 0; i < 4; i++ {
		blob := e2eBlob(t, fmt.Sprintf("events_%d", i), i*100, 100)
		resp, err := http.Post(ctrlURL+"/segments/events_OFFLINE", "application/octet-stream", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("upload segment %d: status %d", i, resp.StatusCode)
		}
	}

	// The cluster is correct over TCP: a full scatter across both server
	// processes returns the exact count. The deadline is generous because CI
	// may run this alongside the full race suite.
	deadline := time.Now().Add(180 * time.Second)
	var full *e2eResponse
	for {
		full, err = postQuery(brokerURL, "SELECT count(*) FROM events")
		if err == nil && !full.Partial && len(full.Rows) == 1 && full.Rows[0][0].(float64) == 400 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached full count 400 (last: %+v, %v)", full, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if full.ServersQueried != 2 {
		t.Fatalf("scatter covered %d servers, want 2", full.ServersQueried)
	}

	// A standalone server answers for itself over HTTP: after a query that
	// scans every segment, server1's /metrics counts the documents it
	// scanned, and server2 serves on the address it logged.
	if _, err := postQuery(brokerURL, "SELECT sum(clicks) FROM events WHERE country = 'us'"); err != nil {
		t.Fatal(err)
	}
	if got := scrapeCounter(t, "http://"+server1HTTP, "pinot_server_docs_scanned_total"); got <= 0 {
		t.Fatalf("server1 reports %v documents scanned, want > 0", got)
	}
	waitHealthy(t, "http://"+loggedAddr(t, filepath.Join(logDir, "server2.log"), "server server2 API on "), 10*time.Second)

	// Fire a query, then kill -9 the victim while the servers are still
	// sitting in their injected delay: the scatter is in flight.
	type result struct {
		res *e2eResponse
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := postQuery(brokerURL, "SELECT count(*), sum(clicks) FROM events")
		done <- result{res, err}
	}()
	time.Sleep(queryDelay / 4)
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9: %v", err)
	}

	var r result
	select {
	case r = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("query hung after kill -9 mid-scatter")
	}
	if r.err != nil {
		t.Fatalf("query failed outright after kill -9: %v", r.err)
	}
	if !r.res.Partial {
		t.Fatalf("want explicitly partial result after kill -9, got %+v", r.res)
	}
	if r.res.ServersResponded >= r.res.ServersQueried {
		t.Fatalf("queried/responded = %d/%d, want responded < queried",
			r.res.ServersQueried, r.res.ServersResponded)
	}
	if len(r.res.Exceptions) == 0 {
		t.Fatal("partial result carries no exceptions")
	}
	if got := r.res.Rows[0][0].(float64); got >= 400 {
		t.Fatalf("partial count = %v, want < 400 (victim held unreplicated segments)", got)
	}

	// The kill -9 also dropped the victim's metadata connection, so the
	// metadata endpoint reaps its ephemeral liveness node and the
	// controller reassigns the lost segments to the survivor from the
	// shared object store. The cluster must heal: exact results resume,
	// served entirely by the one live server.
	deadline = time.Now().Add(30 * time.Second)
	for {
		res, err := postQuery(brokerURL, "SELECT count(*) FROM events")
		if err == nil && !res.Partial && len(res.Rows) == 1 &&
			res.Rows[0][0].(float64) == 400 && res.ServersQueried == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never healed after kill -9 (last: %+v, %v)", res, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// checkLeaderResolves finds the lead controller as a server process does:
// over a session on the metadata endpoint it reads the leader seat and
// resolves that instance to the address its config advertises, which must
// be the completion listener the controller process bound. A poll sent
// there gets a verdict back, not a transport error.
func checkLeaderResolves(t *testing.T, zkAddr, bound string) {
	t.Helper()
	sess := zkmeta.Keep(zkmeta.NewRemote(zkAddr), func(zkmeta.Client) error { return nil })
	defer sess.Close()
	resolve := helix.NewAddrResolver(sess, "pinot", 0)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(20 * time.Millisecond) {
		if leader, ok := helix.Leader(sess.Client(), "pinot"); ok {
			addr, _ = resolve(leader)
		}
		if addr == "" && time.Now().After(deadline) {
			t.Fatal("the lead controller never resolved to an address")
		}
	}
	if addr != bound {
		t.Fatalf("the leader resolves to %s, but the controller bound %s", addr, bound)
	}
	pool := transport.NewPool()
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := transport.NewTCPControllerClient(addr, pool).SegmentConsumed(ctx, &transport.SegmentConsumedRequest{
		Segment: "probe__0__0", Resource: "probe_REALTIME", Instance: "probe", Offset: 0,
	})
	if err != nil {
		t.Fatalf("completion poll to the leader at %s: %v", addr, err)
	}
	// The probe names a segment with no record: the leader holds it and
	// opens no completion.
	if resp.Action != transport.ActionHold {
		t.Fatalf("the leader answered %q, want HOLD", resp.Action)
	}
}

// scrapeCounter sums the samples of one metric family in a /metrics page.
func scrapeCounter(t *testing.T, url, family string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(string(body), "\n") {
		if name, _, _ := strings.Cut(line, "{"); name != family && !strings.HasPrefix(line, family+" ") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", url, line, err)
		}
		sum += v
	}
	return sum
}

// loggedAddr waits for a process log to name an address after prefix.
func loggedAddr(t *testing.T, logPath, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		data, _ := os.ReadFile(logPath)
		if _, rest, ok := strings.Cut(string(data), prefix); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				return strings.TrimSpace(addr)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never logged %q", logPath, prefix)
	return ""
}
