package serve

import (
	"math"
	"net/http"

	"repro/internal/core"
	"repro/internal/monitor"
)

// Typed response bodies. The handlers encode these (instead of ad-hoc
// maps) so a fleet router — or any Go client — can decode shard
// responses with the exact same types the server encodes, which is
// what keeps probabilities bit-exact across the scatter-gather hop:
// encoding/json renders float64 at round-trip precision in both
// directions.

// EvaluateResponse is the body of POST /v1/evaluate.
type EvaluateResponse struct {
	RequestID string      `json:"request_id"`
	Kind      string      `json:"kind"`
	Version   uint64      `json:"version"`
	Matches   []MatchJSON `json:"matches"`
	Cost      CostJSON    `json:"cost"`
	Trace     []SpanJSON  `json:"trace,omitempty"`
	// Partial marks a router-merged response missing one or more
	// shards (fail-open); MissingShards lists them. A single server
	// never sets either.
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []string `json:"missing_shards,omitempty"`
}

// RegisterResponse is the body of POST /v1/queries.
type RegisterResponse struct {
	ID       int64       `json:"id"`
	Kind     string      `json:"kind"`
	Snapshot []MatchJSON `json:"snapshot"`
}

// UpdatesRequest is the body of POST /v1/updates.
type UpdatesRequest struct {
	Updates []UpdateJSON `json:"updates"`
}

// UpdatesResponse is the body of POST /v1/updates.
type UpdatesResponse struct {
	Seq         uint64   `json:"seq"`
	Applied     int      `json:"applied"`
	Missing     int      `json:"missing"`
	Version     uint64   `json:"version"`
	Reevaluated int      `json:"reevaluated"`
	Skipped     int      `json:"skipped"`
	Entered     int      `json:"entered"`
	Left        int      `json:"left"`
	Changed     int      `json:"changed"`
	Errors      []string `json:"errors,omitempty"`
	// Versions is the per-shard version vector of a router-merged
	// ingest: shard id -> engine version after this batch. A single
	// server reports only Version.
	Versions map[string]uint64 `json:"versions,omitempty"`
	// Partial / MissingShards: as in EvaluateResponse, router only.
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []string `json:"missing_shards,omitempty"`
}

// HealthzResponse is the body of GET /healthz (durability fields
// omitted — decode the raw map for those).
type HealthzResponse struct {
	Status  string `json:"status"`
	Version uint64 `json:"version"`
	ShardID string `json:"shard_id,omitempty"`
	Tiles   string `json:"tiles,omitempty"`
}

// NNCandidatesRequest is the body of POST /v1/nn/candidates — the
// shard half of the fleet NN protocol (see core.NNCandidates). Request
// must be a KindNN wire request.
type NNCandidatesRequest struct {
	Request RequestJSON `json:"request"`
	// TauBound, when positive, caps the collection radius (a router
	// re-issue after tightening the global tau).
	TauBound float64 `json:"tau_bound,omitempty"`
	// Limit caps the returned candidate count; exceeding it sets
	// Truncated on the response.
	Limit int `json:"limit,omitempty"`
}

// NNCandidateJSON is one candidate point.
type NNCandidateJSON struct {
	ID int64   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// NNCandidatesResponse is the body of POST /v1/nn/candidates. Tau is
// omitted (nil) when the shard holds no points — its local tau is +Inf,
// which JSON cannot carry.
type NNCandidatesResponse struct {
	Version      uint64            `json:"version"`
	Tau          *float64          `json:"tau,omitempty"`
	Truncated    bool              `json:"truncated,omitempty"`
	NodeAccesses int64             `json:"node_accesses"`
	Candidates   []NNCandidateJSON `json:"candidates"`
}

// TauValue returns the response's local tau (+Inf when absent).
func (r NNCandidatesResponse) TauValue() float64 {
	if r.Tau == nil {
		return math.Inf(1)
	}
	return *r.Tau
}

// maxNNCandidateLimit bounds the candidate list one shard ships per
// NN collection when the client asks for no limit of its own.
const maxNNCandidateLimit = 1 << 16

// POST /v1/nn/candidates — NN candidate collection for a fleet router.
func (s *Server) handleNNCandidates(w http.ResponseWriter, r *http.Request) {
	var body NNCandidatesRequest
	if err := DecodeBody(r, &body); err != nil {
		WriteError(s.log, w, http.StatusBadRequest, err)
		return
	}
	req, err := body.Request.ToRequest()
	if err != nil {
		WriteError(s.log, w, http.StatusBadRequest, err)
		return
	}
	if req.Options == (core.EvalOptions{}) {
		req.Options = s.defaults
	}
	limit := body.Limit
	if limit <= 0 || limit > maxNNCandidateLimit {
		limit = maxNNCandidateLimit
	}
	snap := s.mon.Engine().Snapshot()
	defer snap.Close()
	set, err := snap.NNCandidates(r.Context(), req, core.NNCandidateOptions{
		TauBound: body.TauBound,
		Limit:    limit,
	})
	if err != nil {
		WriteRequestError(s.log, w, err)
		return
	}
	resp := NNCandidatesResponse{
		Version:      set.Version,
		Truncated:    set.Truncated,
		NodeAccesses: set.NodeAccesses,
		Candidates:   make([]NNCandidateJSON, len(set.Candidates)),
	}
	if !math.IsInf(set.Tau, 1) {
		tau := set.Tau
		resp.Tau = &tau
	}
	for i, c := range set.Candidates {
		resp.Candidates[i] = NNCandidateJSON{ID: int64(c.ID), X: c.Loc[0], Y: c.Loc[1]}
	}
	WriteJSON(s.log, w, http.StatusOK, resp)
}

// Engine exposes the served engine (cluster harnesses and tests).
func (s *Server) Engine() *core.Engine { return s.mon.Engine() }

// Monitor exposes the served monitor.
func (s *Server) Monitor() *monitor.Monitor { return s.mon }
