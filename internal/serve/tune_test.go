package serve

// Tests of the structural auto-tuner's serving face: the default
// route, cache-info attribution of the routed algorithm, the
// memoized decision, the /v1/algorithms tags for the new kernels,
// and the pre-registered /metrics schema.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"lotustc/internal/obs"
)

// trigridBody is a graph the policy routes away from lotus: flat
// degrees, short rows, weak hubs.
const trigridBody = `{"graph": {"type": "trigrid", "rows": 100, "cols": 100}}`

func TestDefaultRouteIsAuto(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Tiny graph, algorithm unset: the tuner runs and takes lotus.
	status, raw := postJSON(t, ts.URL+"/v1/count", rmatBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	cr := decodeCount(t, raw)
	if cr.Algorithm != "lotus" || cr.Cache.Algorithm != "lotus" {
		t.Fatalf("tiny rmat routed to %q (cache says %q), want lotus", cr.Algorithm, cr.Cache.Algorithm)
	}
	if cr.Decision == nil || !strings.Contains(cr.Decision.Reason, "tiny graph") {
		t.Fatalf("decision block: %+v", cr.Decision)
	}
	if cr.Classes == nil {
		t.Fatal("auto-routed lotus count lost its class split")
	}
	if got := s.Metrics().Get(obs.TuneDecisionPrefix + "lotus"); got != 1 {
		t.Fatalf("tune.decision.lotus = %d, want 1", got)
	}

	// An explicit algorithm bypasses the tuner entirely.
	status, raw = postJSON(t, ts.URL+"/v1/count",
		`{"graph": {"type": "rmat", "scale": 8, "edge_factor": 8, "seed": 1}, "algorithm": "lotus", "no_cache": true}`)
	if status != http.StatusOK {
		t.Fatalf("explicit lotus: status %d: %s", status, raw)
	}
	if cr := decodeCount(t, raw); cr.Decision != nil {
		t.Fatalf("explicit request carries a tuner decision: %+v", cr.Decision)
	}
	if got := s.Metrics().Get(obs.TuneProbes); got != 1 {
		t.Fatalf("tune.probes = %d after one auto request, want 1", got)
	}
}

func TestAutoRoutesTrigridToCoverEdge(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, raw := postJSON(t, ts.URL+"/v1/count", trigridBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	cr := decodeCount(t, raw)
	if cr.Cache.Algorithm != "cover-edge" {
		t.Fatalf("trigrid routed to %q, want cover-edge (%+v)", cr.Cache.Algorithm, cr.Decision)
	}
	if want := uint64(99 * 99 * 2); cr.Triangles != want {
		t.Fatalf("trigrid count %d, want %d", cr.Triangles, want)
	}
	if cr.Classes != nil {
		t.Fatal("cover-edge count fabricated a class split")
	}

	// The decision is memoized: a second auto request hits the tune
	// cache (and, being cacheable, the result cache — whose stamp
	// still names the routed algorithm).
	status, raw = postJSON(t, ts.URL+"/v1/count", trigridBody)
	if status != http.StatusOK {
		t.Fatalf("warm status %d: %s", status, raw)
	}
	warm := decodeCount(t, raw)
	if !warm.Cache.Result || warm.Cache.Algorithm != "cover-edge" {
		t.Fatalf("warm cache stamp: %+v", warm.Cache)
	}
	if got := s.Metrics().Get(obs.TuneProbes); got != 1 {
		t.Fatalf("tune.probes = %d, want 1 (memoized)", got)
	}

	// no_cache skips the result cache but still reuses the decision.
	status, raw = postJSON(t, ts.URL+"/v1/count",
		`{"graph": {"type": "trigrid", "rows": 100, "cols": 100}, "no_cache": true}`)
	if status != http.StatusOK {
		t.Fatalf("no_cache status %d: %s", status, raw)
	}
	if got := s.Metrics().Get(obs.TuneCacheHits); got != 1 {
		t.Fatalf("tune.cache_hits = %d, want 1", got)
	}
	if got := s.Metrics().Get(obs.TuneProbes); got != 2 {
		t.Fatalf("tune.probes = %d, want 2 (each served decision publishes)", got)
	}
}

func TestDefaultAlgorithmConfig(t *testing.T) {
	// Pinning the server default to lotus restores the pre-tuner
	// behavior: no probe, no decision block.
	s, ts := newTestServer(t, Config{DefaultAlgorithm: "lotus"})
	status, raw := postJSON(t, ts.URL+"/v1/count", rmatBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if cr := decodeCount(t, raw); cr.Decision != nil || cr.Cache.Algorithm != "lotus" {
		t.Fatalf("pinned default: decision=%+v algo=%q", cr.Decision, cr.Cache.Algorithm)
	}
	if got := s.Metrics().Get(obs.TuneProbes); got != 0 {
		t.Fatalf("tune.probes = %d with pinned default, want 0", got)
	}
}

func TestAlgorithmsListsTunerFamily(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Algorithms []AlgorithmInfo `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byName := map[string]AlgorithmCaps{}
	for _, a := range body.Algorithms {
		byName[a.Name] = a.Capabilities
	}
	for _, name := range []string{"auto", "cover-edge"} {
		caps, ok := byName[name]
		if !ok {
			t.Fatalf("/v1/algorithms missing %q", name)
		}
		if !caps.Cancellable || !caps.ReportsPhases || !caps.Parallel {
			t.Errorf("%s capabilities: %+v", name, caps)
		}
	}
	if byName["cover-edge"].Shardable {
		t.Error("cover-edge must not advertise shardable")
	}
	if !byName["lotus"].Shardable {
		t.Error("lotus must advertise shardable")
	}
	// The class split is its own tag: the LOTUS-structured kernels
	// carry it, cover-edge and auto report phases without it, and the
	// comparators carry neither.
	if caps := byName["lotus"]; !caps.ReportsClasses || !caps.ReportsPhases {
		t.Errorf("lotus must advertise reports_classes and reports_phases: %+v", caps)
	}
	for _, name := range []string{"cover-edge", "auto", "forward"} {
		if byName[name].ReportsClasses {
			t.Errorf("%s must not advertise reports_classes", name)
		}
	}
}

func TestMetricsPreRegistered(t *testing.T) {
	// Before any request, /metrics must already carry the tuner and
	// cover-edge schema at zero — dashboards see the keys from boot.
	s, _ := newTestServer(t, Config{})
	snap := s.Metrics().Snapshot()
	for _, name := range []string{
		obs.TuneProbes, obs.TuneProbeNS, obs.TuneOverridden, obs.TuneCacheHits,
		obs.TuneDecisionPrefix + "lotus", obs.TuneDecisionPrefix + "cover-edge",
		obs.TuneDecisionPrefix + "auto",
		obs.CoverBFSNS, obs.CoverLevels, obs.CoverEdges, obs.CoverCountNS,
	} {
		v, ok := snap[name]
		if !ok {
			t.Errorf("metric %q not pre-registered", name)
		} else if v != 0 {
			t.Errorf("metric %q pre-registered at %d, want 0", name, v)
		}
	}
}
