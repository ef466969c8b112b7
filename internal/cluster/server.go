package cluster

import (
	"context"
	"errors"
	"net/http"

	"apres/internal/server"
	"apres/internal/version"
)

// Server is the coordinator's HTTP face: the same /v1/simulate and
// /v1/sweep surface a worker exposes (so clients point at a coordinator
// without changing a line), plus the cluster control plane:
//
//	POST /v1/sweep           shard the matrix across workers, merge cells
//	POST /v1/simulate        proxy to the cell's rendezvous owner
//	POST /v1/cluster/join    probe + admit a worker at runtime
//	GET  /v1/cluster/status  node health, counters, live-node count
//	GET  /healthz            200 while >=1 worker lives (503 draining)
//	GET  /metrics            apresd_cluster_* Prometheus text format
//
// Trace requests are a worker-local feature (the artifact lives on one
// node's disk); the coordinator rejects them with 400.
type Server struct {
	*server.Skeleton
	coord *Coordinator
}

// NewServer builds the HTTP front end over a Coordinator, on the serving
// skeleton a worker uses: same request counting, same JSON encoder, same
// readiness-first drain.
func NewServer(c *Coordinator) *Server {
	s := &Server{Skeleton: server.NewSkeleton(), coord: c}
	s.Handle("POST /v1/sweep", "sweep", s.handleSweep)
	s.Handle("POST /v1/simulate", "simulate", s.handleSimulate)
	s.Handle("POST /v1/cluster/join", "join", s.handleJoin)
	s.Handle("GET /v1/cluster/status", "status", s.handleStatus)
	s.Handle("GET /healthz", "healthz", s.handleHealthz)
	s.Handle("GET /metrics", "metrics", s.handleMetrics)
	return s
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req server.SweepRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	resp, err := s.coord.Sweep(r.Context(), &req)
	switch {
	case errors.Is(err, ErrNoNodes):
		server.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		server.WriteError(w, http.StatusServiceUnavailable, "sweep aborted: %v", err)
	case err != nil:
		// Matrix validation failures — the same field-precise errors a
		// worker would return for the request.
		server.WriteError(w, http.StatusBadRequest, "%v", err)
	default:
		server.WriteJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req server.SimulateRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if req.Trace {
		server.WriteError(w, http.StatusBadRequest,
			"trace requests are not supported in coordinator mode: the artifact is worker-local; POST the request to a worker directly")
		return
	}
	status, body, err := s.coord.Simulate(r.Context(), &req)
	switch {
	case errors.Is(err, ErrNoNodes):
		server.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil && status == http.StatusBadRequest:
		server.WriteError(w, http.StatusBadRequest, "%v", err)
	case err != nil:
		server.WriteError(w, http.StatusBadGateway, "cluster dispatch failed: %v", err)
	default:
		// Forward the worker's answer verbatim — status, body bytes, and
		// content type — so proxied responses are indistinguishable from
		// direct ones.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(body)
	}
}

// joinRequest is the POST /v1/cluster/join body.
type joinRequest struct {
	URL string `json:"url"`
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !server.DecodeBody(w, r, &req) {
		return
	}
	if req.URL == "" {
		server.WriteError(w, http.StatusBadRequest, "url is required")
		return
	}
	if _, err := normalizeNode(req.URL); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.coord.Join(r.Context(), req.URL); err != nil {
		server.WriteError(w, http.StatusBadGateway, "%v", err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"joined": req.URL,
		"nodes":  s.coord.Nodes(),
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, s.coord.Status())
}

// handleHealthz is the coordinator's readiness probe: ready while it can
// still dispatch somewhere (>=1 live worker) and is not draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.coord.Status()
	status := "ok"
	code := http.StatusOK
	switch {
	case s.Draining():
		status = "draining"
		code = http.StatusServiceUnavailable
	case st.LiveNodes == 0:
		status = "no live nodes"
		code = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, code, map[string]any{
		"status":    status,
		"role":      "coordinator",
		"version":   version.Stamp(),
		"liveNodes": st.LiveNodes,
		"nodes":     len(st.Nodes),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var e server.Exposition
	e.Family("apresd_cluster_build_info", "gauge", "Constant 1, labelled with the coordinator version stamp.")
	e.Sample(1, "version", version.Stamp())
	s.WriteRequests(&e, "apresd_cluster_requests_total")
	s.coord.renderMetrics(&e)
	e.WriteTo(w)
}
