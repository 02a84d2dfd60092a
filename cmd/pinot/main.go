// Command pinot runs a Pinot cluster. The default role, "all", runs a
// complete single-process cluster — controllers, servers, brokers and
// minions over the in-memory metadata, stream and object stores, queries
// scattered over the framed TCP data plane on loopback — exposing the
// controller and broker HTTP APIs.
//
//	pinot -servers 3 -brokers 2 -controller-addr :9000 -broker-addr :8099
//
// The other roles split the same components across real OS processes that
// share cluster state through the controller's TCP metadata endpoint and a
// filesystem object store, and scatter queries over the framed TCP data
// plane (offline tables; stream ingestion stays in-process-only):
//
//	pinot -role controller -zk-listen :2181 -objstore-dir /tmp/pinot-store
//	pinot -role server -instance server1 -zk localhost:2181 -objstore-dir /tmp/pinot-store
//	pinot -role server -instance server2 -zk localhost:2181 -objstore-dir /tmp/pinot-store -server-addr :8097
//	pinot -role broker -zk localhost:2181 -broker-addr :8099
//
// Then:
//
//	curl -X POST localhost:9000/tables  -d @table-config.json
//	curl -X POST localhost:9000/segments/events_OFFLINE --data-binary @events_0.seg
//	curl -X POST localhost:8099/query   -d '{"pql": "SELECT count(*) FROM events"}'
//	curl localhost:8097/metrics
//	go tool pprof http://localhost:8097/debug/pprof/profile
//
// A server's HTTP API (-server-addr, by default a free loopback port, logged
// when bound) serves its metrics, health and runtime profiles.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pinot/internal/broker"
	"pinot/internal/cluster"
	"pinot/internal/controller"
	"pinot/internal/helix"
	"pinot/internal/httpapi"
	"pinot/internal/metrics"
	"pinot/internal/objstore"
	"pinot/internal/server"
	"pinot/internal/stream"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

func main() {
	var (
		role           = flag.String("role", "all", "process role: all|controller|server|broker")
		name           = flag.String("cluster", "pinot", "cluster name")
		instance       = flag.String("instance", "", "instance name (server/broker roles; defaults per role)")
		controllers    = flag.Int("controllers", 1, "controller instances (role=all)")
		servers        = flag.Int("servers", 2, "server instances (role=all)")
		brokers        = flag.Int("brokers", 1, "broker instances (role=all)")
		minions        = flag.Int("minions", 1, "minion instances (role=all)")
		controllerAddr = flag.String("controller-addr", ":9000", "controller HTTP listen address")
		brokerAddr     = flag.String("broker-addr", ":8099", "broker HTTP listen address")
		serverAddr     = flag.String("server-addr", "127.0.0.1:0", "server HTTP listen address: /metrics, /health, /debug/pprof/ (role=server; the bound address is logged)")
		strategy       = flag.String("routing", "balanced", "broker routing strategy: balanced|largeCluster")
		partitionAware = flag.Bool("partition-aware", false, "enable partition-aware routing")
		streamTopics   = flag.String("topics", "", "comma-separated topic:partitions to pre-create, e.g. events:4")
		zkListen       = flag.String("zk-listen", ":2181", "metadata TCP listen address (role=controller)")
		zkAddr         = flag.String("zk", "localhost:2181", "metadata TCP endpoint (roles server/broker)")
		objstoreDir    = flag.String("objstore-dir", "", "shared filesystem object store directory (multi-process roles)")
		transportAddr  = flag.String("transport-addr", "127.0.0.1:0", "framed-TCP data plane listen address (roles controller/server)")
		queryDelay     = flag.Duration("debug-query-delay", 0, "artificial per-query latency on this server (testing hook)")

		disableResultCache = flag.Bool("disable-result-cache", false, "A/B lever: turn off the broker result cache (roles all/broker)")
		resultCacheBytes   = flag.Int64("result-cache-bytes", 0, "broker result cache capacity in bytes (0 = 64 MiB default)")
		disableServerCache = flag.Bool("disable-server-cache", false, "A/B lever: turn off the server partial-aggregate cache (roles all/server)")
		serverCacheBytes   = flag.Int64("server-cache-bytes", 0, "server partial-aggregate cache capacity in bytes (0 = 64 MiB default)")
	)
	flag.Parse()
	caches := cacheFlags{
		disableResult: *disableResultCache,
		resultBytes:   *resultCacheBytes,
		disableServer: *disableServerCache,
		serverBytes:   *serverCacheBytes,
	}

	switch *role {
	case "all":
		runAll(*name, *controllers, *servers, *brokers, *minions, *controllerAddr, *brokerAddr, *strategy, *partitionAware, *streamTopics, caches)
	case "controller":
		runController(*name, *zkListen, *objstoreDir, *controllerAddr, *transportAddr)
	case "server":
		runServer(*name, *instance, *zkAddr, *objstoreDir, *transportAddr, *serverAddr, *queryDelay, caches)
	case "broker":
		runBroker(*name, *instance, *zkAddr, *brokerAddr, *strategy, *partitionAware, caches)
	default:
		log.Fatalf("unknown role %q (want all|controller|server|broker)", *role)
	}
}

func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
}

// cacheFlags carries the multi-tier cache levers from the command line to
// whichever roles this process hosts. Both caches are on by default;
// the disable flags are the A/B switches DESIGN.md describes.
type cacheFlags struct {
	disableResult bool
	resultBytes   int64
	disableServer bool
	serverBytes   int64
}

func runAll(name string, controllers, servers, brokers, minions int, controllerAddr, brokerAddr, strategy string, partitionAware bool, streamTopics string, caches cacheFlags) {
	c, err := cluster.NewLocal(cluster.Options{
		Name:        name,
		Controllers: controllers,
		Servers:     servers,
		Brokers:     brokers,
		Minions:     minions,
		BrokerTemplate: broker.Config{
			Strategy:           broker.Strategy(strategy),
			PartitionAware:     partitionAware,
			DisableResultCache: caches.disableResult,
			ResultCacheBytes:   caches.resultBytes,
		},
		ServerTemplate: server.Config{
			DisableServerCache: caches.disableServer,
			ServerCacheBytes:   caches.serverBytes,
		},
		// The binary is one process = one cluster, so the process-wide
		// default registry (which the transport package also records into)
		// is the right home for every component's metrics.
		Metrics: metrics.Default(),
	})
	if err != nil {
		log.Fatalf("cluster start: %v", err)
	}
	defer c.Shutdown()

	if streamTopics != "" {
		if err := createTopics(c, streamTopics); err != nil {
			log.Fatalf("topics: %v", err)
		}
	}

	leader, err := c.WaitForLeader(10 * time.Second)
	if err != nil {
		log.Fatalf("no leader: %v", err)
	}
	ctrlSrv := serveHTTP("controller", controllerAddr, httpapi.NewControllerHandler(leader))
	brokerSrv := serveHTTP("broker", brokerAddr, httpapi.NewBrokerHandler(c.Broker()))
	log.Printf("cluster %q up: %d controllers, %d servers, %d brokers, %d minions",
		name, controllers, servers, brokers, minions)
	awaitSignal()
	_ = ctrlSrv.Close()
	_ = brokerSrv.Close()
}

// serveHTTP serves handler on addr and logs the address it bound, so a
// port-0 address can be found.
func serveHTTP(what, addr string, handler http.Handler) *http.Server {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("%s http: %v", what, err)
	}
	log.Printf("%s API on %s", what, lis.Addr())
	srv := &http.Server{Handler: handler}
	go func() {
		if err := srv.Serve(lis); err != http.ErrServerClosed {
			log.Fatalf("%s http: %v", what, err)
		}
	}()
	return srv
}

func mustObjstore(dir string) objstore.Store {
	if dir == "" {
		log.Fatal("multi-process roles require -objstore-dir (a directory shared by controller and servers)")
	}
	fs, err := objstore.NewFS(dir)
	if err != nil {
		log.Fatalf("objstore: %v", err)
	}
	return fs
}

// runController hosts the cluster metadata (an in-process zkmeta store
// served over TCP for the other processes), the lead controller, its HTTP
// API and a data-plane listener answering segment-completion frames.
func runController(name, zkListen, objstoreDir, httpAddr, transportAddr string) {
	store := zkmeta.NewStore()
	zkSrv := zkmeta.NewTCPServer(store)
	zkLis, err := net.Listen("tcp", zkListen)
	if err != nil {
		log.Fatalf("zk listen: %v", err)
	}
	go zkSrv.Serve(zkLis)
	defer zkSrv.Close()
	log.Printf("metadata endpoint on %s", zkLis.Addr())

	dataLis, err := net.Listen("tcp", transportAddr)
	if err != nil {
		log.Fatalf("transport listen: %v", err)
	}
	ctrl := controller.New(controller.Config{
		Cluster:       name,
		Instance:      "controller1",
		AdvertiseAddr: dataLis.Addr().String(),
		Metrics:       metrics.Default(),
	}, store, mustObjstore(objstoreDir), stream.NewCluster())
	dataSrv := transport.NewTCPQueryServer(nil)
	dataSrv.Controller = ctrl
	go dataSrv.Serve(dataLis)
	defer dataSrv.Close()
	if err := ctrl.Start(); err != nil {
		log.Fatalf("controller start: %v", err)
	}
	defer ctrl.Stop()
	log.Printf("completion data plane on %s", dataLis.Addr())

	httpSrv := serveHTTP("controller", httpAddr, httpapi.NewControllerHandler(ctrl))
	awaitSignal()
	_ = httpSrv.Close()
}

// runServer joins the cluster through the remote metadata endpoint, serves
// the framed query protocol on its advertised address and its metrics and
// profiles over HTTP, and loads segments from the shared filesystem object
// store.
func runServer(name, instance, zkAddr, objstoreDir, transportAddr, httpAddr string, queryDelay time.Duration, caches cacheFlags) {
	if instance == "" {
		instance = fmt.Sprintf("server-%d", os.Getpid())
	}
	lis, err := net.Listen("tcp", transportAddr)
	if err != nil {
		log.Fatalf("transport listen: %v", err)
	}
	remote := zkmeta.NewRemote(zkAddr)
	srv := server.New(server.Config{
		Cluster:            name,
		Instance:           instance,
		AdvertiseAddr:      lis.Addr().String(),
		Metrics:            metrics.Default(),
		DisableServerCache: caches.disableServer,
		ServerCacheBytes:   caches.serverBytes,
	}, remote, mustObjstore(objstoreDir), stream.NewCluster())
	if queryDelay > 0 {
		srv.InjectLatency(queryDelay)
	}
	if err := srv.Start(); err != nil {
		log.Fatalf("server start: %v", err)
	}
	defer srv.Stop()

	dataSrv := transport.NewTCPQueryServer(srv)
	go dataSrv.Serve(lis)
	defer dataSrv.Close()
	log.Printf("server %s: data plane on %s", instance, lis.Addr())
	httpSrv := serveHTTP("server "+instance, httpAddr, httpapi.NewServerHandler(metrics.Default()))
	awaitSignal()
	_ = httpSrv.Close()
}

// runBroker joins the cluster through the remote metadata endpoint and
// scatters queries over TCP, resolving server instances to data-plane
// addresses from their registered instance configs (briefly cached).
func runBroker(name, instance, zkAddr, httpAddr, strategy string, partitionAware bool, caches cacheFlags) {
	if instance == "" {
		instance = fmt.Sprintf("broker-%d", os.Getpid())
	}
	remote := zkmeta.NewRemote(zkAddr)
	pool := transport.NewPool()
	defer pool.Close()
	resolverSess := zkmeta.Keep(remote, func(zkmeta.Client) error { return nil })
	defer resolverSess.Close()
	registry := transport.NewTCPRegistry(helix.NewAddrResolver(resolverSess, name, 2*time.Second), pool)
	br := broker.New(broker.Config{
		Cluster:            name,
		Instance:           instance,
		Strategy:           broker.Strategy(strategy),
		PartitionAware:     partitionAware,
		Metrics:            metrics.Default(),
		DisableResultCache: caches.disableResult,
		ResultCacheBytes:   caches.resultBytes,
	}, remote, registry)
	if err := br.Start(); err != nil {
		log.Fatalf("broker start: %v", err)
	}
	defer br.Stop()
	httpSrv := serveHTTP("broker", httpAddr, httpapi.NewBrokerHandler(br))
	log.Printf("broker %s up", instance)
	awaitSignal()
	_ = httpSrv.Close()
}

func createTopics(c *cluster.Cluster, spec string) error {
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, count, ok := strings.Cut(item, ":")
		partitions, err := strconv.Atoi(count)
		if !ok || err != nil || partitions <= 0 || name == "" {
			return fmt.Errorf("bad topic spec %q (want name:partitions)", item)
		}
		if _, err := c.Streams.CreateTopic(name, partitions); err != nil {
			return err
		}
		log.Printf("created topic %s with %d partitions", name, partitions)
	}
	return nil
}
