// Package transport defines the broker↔server and server↔controller wire
// contracts and their one data plane, used in process as across processes:
// length-prefixed frames over TCP (frame.go, tcp.go) on pooled connections
// (pool.go), whose payloads the binary codec in codec.go writes and reads.
package transport

import (
	"context"
	"sync/atomic"
	"time"

	"pinot/internal/metrics"
	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/wire"
)

// wireMetrics instruments the encode/decode hot path. EncodeResponse and
// DecodeResponse are package functions, so the handles live behind a
// process-global atomic pointer swappable via UseRegistry (tests that need
// isolation swap in their own registry and restore Default afterwards).
type wireMetrics struct {
	encodes      *metrics.Instrument
	encodeBytes  *metrics.Instrument
	encodeTimeUs *metrics.Instrument // histogram
	decodes      *metrics.Instrument
	decodeFails  *metrics.Instrument

	// TCP data plane (frame.go, tcp.go, pool.go).
	framesSent *metrics.Instrument
	framesRecv *metrics.Instrument
	bytesSent  *metrics.Instrument
	bytesRecv  *metrics.Instrument
	dials      *metrics.Instrument
	reconnects *metrics.Instrument
	poolHits   *metrics.Instrument
	poolMisses *metrics.Instrument
	poolIdle   *metrics.Instrument // gauge
	idleClosed *metrics.Instrument
	connErrors *metrics.Instrument
}

func newWireMetrics(reg *metrics.Registry) *wireMetrics {
	return &wireMetrics{
		encodes: reg.Counter("pinot_transport_encodes_total",
			"Whole query responses encoded by EncodeResponse.").With(),
		encodeBytes: reg.Counter("pinot_transport_encode_bytes_total",
			"Bytes of encoded query responses.").With(),
		encodeTimeUs: reg.Histogram("pinot_transport_encode_time_us",
			"Response encode time in microseconds.").With(),
		decodes: reg.Counter("pinot_transport_decodes_total",
			"Query responses decoded from the wire.").With(),
		decodeFails: reg.Counter("pinot_transport_decode_failures_total",
			"Wire payloads rejected by the decoder.").With(),
		framesSent: reg.Counter("pinot_transport_frames_sent_total",
			"TCP frames written to the wire.").With(),
		framesRecv: reg.Counter("pinot_transport_frames_recv_total",
			"TCP frames read off the wire.").With(),
		bytesSent: reg.Counter("pinot_transport_bytes_sent_total",
			"Bytes of TCP frames written (headers included).").With(),
		bytesRecv: reg.Counter("pinot_transport_bytes_recv_total",
			"Bytes of TCP frames read (headers included).").With(),
		dials: reg.Counter("pinot_transport_dials_total",
			"TCP connections dialed by the pool.").With(),
		reconnects: reg.Counter("pinot_transport_reconnects_total",
			"Dials to a destination that had been dialed before (recovery).").With(),
		poolHits: reg.Counter("pinot_transport_pool_hits_total",
			"Connection checkouts served from the idle pool.").With(),
		poolMisses: reg.Counter("pinot_transport_pool_misses_total",
			"Connection checkouts that required a dial.").With(),
		poolIdle: reg.Gauge("pinot_transport_pool_idle_conns",
			"Idle pooled connections across destinations.").With(),
		idleClosed: reg.Counter("pinot_transport_pool_idle_closed_total",
			"Idle connections closed by the reaper or pool limits.").With(),
		connErrors: reg.Counter("pinot_transport_conn_errors_total",
			"Connections discarded after an I/O or protocol error.").With(),
	}
}

var wireMet atomic.Pointer[wireMetrics]

func init() { wireMet.Store(newWireMetrics(metrics.Default())) }

// UseRegistry points the transport's package-level instruments at a registry
// (metrics.Default() at init). Not synchronized with in-flight calls beyond
// the atomic swap; intended for process setup and sequential tests.
func UseRegistry(reg *metrics.Registry) {
	if reg == nil {
		reg = metrics.Default()
	}
	wireMet.Store(newWireMetrics(reg))
}

// QueryRequest asks a server to execute a query on a subset of a resource's
// segments (paper 3.3.3 step 3).
type QueryRequest struct {
	Resource string
	PQL      string
	// Segments restricts execution to these segment names; nil means all
	// segments the server hosts for the resource.
	Segments []string
	// Tenant is the token-bucket account charged for execution.
	Tenant string
	// TimeoutMillis bounds server-side execution (0 = server default).
	TimeoutMillis int64
	// QueryID correlates this request with the broker-side query.
	QueryID string
	// BudgetMillis is the broker's remaining deadline budget at send time
	// (planning and routing already charged). The server enforces the
	// minimum of this, TimeoutMillis and its own default (0 = unset).
	BudgetMillis int64
}

// QueryResponse carries a server's partial result.
type QueryResponse struct {
	Result     *query.Intermediate
	Exceptions []string
	// Trace carries the server-side phase timings (queue wait, engine
	// execute) back to the broker for the client-visible trace.
	Trace qctx.Trace
}

// ServerClient executes queries on one server instance.
type ServerClient interface {
	Execute(ctx context.Context, req *QueryRequest) (*QueryResponse, error)
}

// Registry resolves instance names to clients; brokers use it to scatter
// queries.
type Registry interface {
	ServerClient(instance string) (ServerClient, bool)
}

// RegistryFunc adapts a function to Registry.
type RegistryFunc func(instance string) (ServerClient, bool)

// ServerClient implements Registry.
func (f RegistryFunc) ServerClient(instance string) (ServerClient, bool) { return f(instance) }

// SegmentConsumedAction is the controller's instruction to a polling replica
// in the segment completion protocol (paper 3.3.6).
type SegmentConsumedAction string

// Completion-protocol actions.
const (
	ActionHold      SegmentConsumedAction = "HOLD"
	ActionCatchup   SegmentConsumedAction = "CATCHUP"
	ActionKeep      SegmentConsumedAction = "KEEP"
	ActionCommit    SegmentConsumedAction = "COMMIT"
	ActionDiscard   SegmentConsumedAction = "DISCARD"
	ActionNotLeader SegmentConsumedAction = "NOTLEADER"
)

// SegmentConsumedRequest is a replica's poll after reaching its end
// criteria.
type SegmentConsumedRequest struct {
	Segment  string
	Resource string
	Instance string
	Offset   int64
}

// SegmentConsumedResponse is the controller's instruction.
type SegmentConsumedResponse struct {
	Action SegmentConsumedAction
	// TargetOffset accompanies CATCHUP.
	TargetOffset int64
}

// SegmentCommitRequest uploads the committer's sealed segment.
type SegmentCommitRequest struct {
	Segment  string
	Resource string
	Instance string
	Offset   int64
	Blob     []byte
}

// SegmentCommitResponse reports commit success.
type SegmentCommitResponse struct {
	Success bool
	Reason  string
}

// ControllerClient is the server's view of the lead controller.
type ControllerClient interface {
	SegmentConsumed(ctx context.Context, req *SegmentConsumedRequest) (*SegmentConsumedResponse, error)
	CommitSegment(ctx context.Context, req *SegmentCommitRequest) (*SegmentCommitResponse, error)
}

// EncodeResponse encodes a whole query response (the unstreamed form of a
// server's answer) with the data-plane codec, counting the encode in the
// transport metrics. The returned slice is owned by the caller.
func EncodeResponse(r *QueryResponse) ([]byte, error) {
	start := time.Now()
	e := wire.GetEncoder()
	defer e.Release()
	encodeQueryResponse(e, r)
	if err := encodeErr(e); err != nil {
		return nil, err
	}
	out := append([]byte(nil), e.Bytes()...)
	met := wireMet.Load()
	met.encodes.Inc()
	met.encodeBytes.Add(int64(len(out)))
	met.encodeTimeUs.ObserveDuration(time.Since(start))
	return out, nil
}

// DecodeResponse reverses EncodeResponse. Payloads arrive off the network,
// so any byte sequence must yield a response or an error — never a panic.
func DecodeResponse(data []byte) (*QueryResponse, error) {
	d := wire.NewDecoder(data)
	resp := decodeQueryResponse(&d)
	if err := finish(&d); err != nil {
		return nil, err
	}
	wireMet.Load().decodes.Inc()
	return resp, nil
}
