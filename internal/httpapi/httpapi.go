// Package httpapi exposes brokers and controllers over HTTP, the paper's
// user-facing surface (3.4: "all user-accessible operations for Pinot are
// done through HTTP, allowing users to leverage existing battle-tested load
// balancers"). Clients POST PQL to brokers; administrators manage tables,
// segments and tasks on the controller.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"

	"pinot/internal/broker"
	"pinot/internal/controller"
	"pinot/internal/metrics"
	"pinot/internal/pql"
	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/table"
)

// QueryRequest is the broker query payload.
type QueryRequest struct {
	PQL    string `json:"pql"`
	Tenant string `json:"tenant,omitempty"`
}

// ServerException mirrors broker.ServerException for JSON clients.
type ServerException struct {
	Server    string `json:"server"`
	Error     string `json:"error"`
	Recovered bool   `json:"recovered"`
}

// QueryResponse is the broker's JSON reply.
type QueryResponse struct {
	QueryID    string      `json:"queryId,omitempty"`
	Columns    []string    `json:"columns"`
	Rows       [][]any     `json:"rows"`
	Stats      query.Stats `json:"stats"`
	Partial    bool        `json:"partial,omitempty"`
	Exceptions []string    `json:"exceptions,omitempty"`
	TimeMillis int64       `json:"timeMillis"`
	// TraceMillis is the per-phase wall-clock ledger (parse, route, queue,
	// scatter, execute, merge, reduce) in milliseconds.
	TraceMillis      map[string]int64  `json:"traceMillis,omitempty"`
	ServersQueried   int               `json:"serversQueried"`
	ServersResponded int               `json:"serversResponded"`
	ServerExceptions []ServerException `json:"serverExceptions,omitempty"`
}

// errorBody is the uniform error payload. Parse is set when the failure was
// a PQL parse error, giving clients the position without string-scraping.
type errorBody struct {
	Error string          `json:"error"`
	Parse *parseErrorBody `json:"parse,omitempty"`
}

// parseErrorBody is the structured half of a PQL parse failure.
type parseErrorBody struct {
	Message string `json:"message"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Offset  int    `json:"offset"`
	Token   string `json:"token,omitempty"` // "" at end of input
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error()}
	var pe *pql.ParseError
	if errors.As(err, &pe) {
		body.Parse = &parseErrorBody{
			Message: pe.Msg, Line: pe.Line, Col: pe.Col, Offset: pe.Offset, Token: pe.Token,
		}
	}
	writeJSON(w, status, body)
}

// NewBrokerHandler serves POST /query on a broker.
func NewBrokerHandler(b *broker.Broker) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
			return
		}
		if strings.TrimSpace(req.PQL) == "" {
			writeError(w, http.StatusBadRequest, errors.New("missing pql"))
			return
		}
		res, err := b.Execute(r.Context(), req.PQL, req.Tenant)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		out := QueryResponse{
			QueryID:          res.QueryID,
			Columns:          res.Columns,
			Rows:             res.Rows,
			Stats:            res.Stats,
			Partial:          res.Partial,
			Exceptions:       res.Exceptions,
			TimeMillis:       res.TimeMillis,
			ServersQueried:   res.ServersQueried,
			ServersResponded: res.ServersResponded,
		}
		for p, d := range res.Trace {
			if d != 0 {
				if out.TraceMillis == nil {
					out.TraceMillis = map[string]int64{}
				}
				out.TraceMillis[qctx.Phase(p).String()] = d.Milliseconds()
			}
		}
		for _, e := range res.ServerExceptions {
			out.ServerExceptions = append(out.ServerExceptions, ServerException(e))
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /health", health)
	mux.HandleFunc("GET /metrics", metricsHandler(b.Metrics()))
	mux.HandleFunc("GET /debug/queries", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"slowest":       b.SlowQueries().Slowest(),
			"parseFailures": b.ParseFailures(),
		})
	})
	return mux
}

// NewServerHandler serves a standalone server's registry on GET /metrics,
// GET /health, and the runtime profiles of net/http/pprof under
// /debug/pprof/.
func NewServerHandler(reg *metrics.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", health)
	mux.HandleFunc("GET /metrics", metricsHandler(reg))
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// metricsHandler serves a registry in Prometheus text format, or as JSON
// when the client asks via ?format=json or an Accept: application/json
// header.
func metricsHandler(reg *metrics.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" ||
			strings.Contains(r.Header.Get("Accept"), "application/json") {
			writeJSON(w, http.StatusOK, map[string]any{"families": reg.Snapshot()})
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	}
}

// NewControllerHandler serves table/segment/task administration on a
// controller.
func NewControllerHandler(c *controller.Controller) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", health)
	mux.HandleFunc("GET /metrics", metricsHandler(c.Metrics()))

	mux.HandleFunc("GET /tables", func(w http.ResponseWriter, r *http.Request) {
		tables, err := c.Tables()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string][]string{"tables": tables})
	})

	mux.HandleFunc("POST /tables", func(w http.ResponseWriter, r *http.Request) {
		var cfg table.Config
		if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid table config: %w", err))
			return
		}
		if err := c.AddTable(&cfg); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "created", "resource": cfg.Resource()})
	})

	mux.HandleFunc("DELETE /tables/{name}", func(w http.ResponseWriter, r *http.Request) {
		typ := table.Type(strings.ToUpper(r.URL.Query().Get("type")))
		if typ != table.Offline && typ != table.Realtime {
			writeError(w, http.StatusBadRequest, errors.New("type query parameter must be OFFLINE or REALTIME"))
			return
		}
		if err := c.DeleteTable(r.PathValue("name"), typ); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	})

	mux.HandleFunc("GET /tables/{resource}/segments", func(w http.ResponseWriter, r *http.Request) {
		metas, err := c.SegmentMetas(r.PathValue("resource"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"segments": metas})
	})

	// Segment upload: the HTTP POST of paper 3.3.5. The body is the
	// segment blob.
	mux.HandleFunc("POST /segments/{resource}", func(w http.ResponseWriter, r *http.Request) {
		blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<30))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := c.UploadSegment(r.PathValue("resource"), blob); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "uploaded"})
	})

	mux.HandleFunc("DELETE /segments/{resource}/{segment}", func(w http.ResponseWriter, r *http.Request) {
		if err := c.DeleteSegment(r.PathValue("resource"), r.PathValue("segment")); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
	})

	mux.HandleFunc("GET /tasks", func(w http.ResponseWriter, r *http.Request) {
		tasks, err := c.Tasks()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"tasks": tasks})
	})

	mux.HandleFunc("POST /tasks", func(w http.ResponseWriter, r *http.Request) {
		var t controller.Task
		if err := json.NewDecoder(r.Body).Decode(&t); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid task: %w", err))
			return
		}
		if err := c.ScheduleTask(&t); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "scheduled"})
	})

	return mux
}

func health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func statusFor(err error) int {
	if errors.Is(err, controller.ErrNotLeader) {
		// Clients should retry against the lead controller.
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}
