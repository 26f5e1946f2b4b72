package serve

// The serving layer's fault-point catalog and the debug endpoint that
// arms it at runtime. Points are registered at init so /debug/faults
// and the -faults flag can enumerate and validate against the full
// catalog before anything fires.

import (
	"net/http"

	"lotustc/internal/faults"
)

// Fault points threaded through the serving layer. Each name marks one
// production failure site; arming it (tests, -faults, /debug/faults)
// drives the real handling path — retry, degradation or a typed HTTP
// error — exactly as a genuine failure would.
const (
	// FaultBuild fires inside a detached cache build, before the result
	// is published to the herd.
	FaultBuild = "serve.build"
	// FaultPreprocess fires at the head of LOTUS preprocessing (both
	// the grid plan and each per-shard structure build).
	FaultPreprocess = "serve.preprocess"
	// FaultIngestApply fires at the head of a stream-ingest request,
	// before the batch touches the session.
	FaultIngestApply = "serve.ingest.apply"
	// FaultCacheAdmit fires at cache admission: the build succeeded but
	// its result is not cached (every later request rebuilds).
	FaultCacheAdmit = "serve.cache.admit"
	// FaultWALAppend fires inside the WAL append write.
	FaultWALAppend = "wal.append"
	// FaultWALFsync fires inside WAL/snapshot fsyncs.
	FaultWALFsync = "wal.fsync"
)

func init() {
	for _, p := range []string{
		FaultBuild, FaultPreprocess, FaultIngestApply,
		FaultCacheAdmit, FaultWALAppend, FaultWALFsync,
	} {
		faults.Register(p)
	}
}

// faultsConfigRequest is the POST /debug/faults body: a flag-style
// spec to arm (additive), a point to disarm, or a full reset.
type faultsConfigRequest struct {
	Spec   string `json:"spec,omitempty"`
	Disarm string `json:"disarm,omitempty"`
	Reset  bool   `json:"reset,omitempty"`
}

// handleFaultsGet lists the catalog with armed policies and counters.
func (s *Server) handleFaultsGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"points": faults.Points()})
}

// handleFaultsPost reconfigures the registry. Only mounted under
// Config.DebugFaults — this endpoint exists to break the server on
// purpose and must never reach production routing.
func (s *Server) handleFaultsPost(w http.ResponseWriter, r *http.Request) {
	var req faultsConfigRequest
	if err := decodeJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.Reset {
		faults.Reset()
	}
	if req.Disarm != "" {
		faults.Disarm(req.Disarm)
	}
	if req.Spec != "" {
		if err := faults.Configure(req.Spec); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_fault_spec", err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"points": faults.Points()})
}
