package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// SchemaRun versions the JSON document this package emits. Consumers
// (BENCH_*.json diffing, dashboards) must check the schema string;
// additive fields keep the version, incompatible changes bump it.
const SchemaRun = "lotustc/run-report/v1"

// Env describes the process environment a report was produced in,
// enough to judge whether two BENCH_*.json files are comparable.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentEnv captures the running process's environment.
func CurrentEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// GraphInfo identifies the input graph of a run.
type GraphInfo struct {
	// Source describes where the graph came from, e.g. "rmat-16",
	// "file:web.lotg", "edgelist:graph.txt".
	Source   string `json:"source,omitempty"`
	Vertices int64  `json:"vertices"`
	Edges    int64  `json:"edges"`
}

// PhaseNS is one timed stage of a run.
type PhaseNS struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// Classes is the Fig 7 triangle-class breakdown.
type Classes struct {
	HHH uint64 `json:"hhh"`
	HHN uint64 `json:"hhn"`
	HNN uint64 `json:"hnn"`
	NNN uint64 `json:"nnn"`
}

// TuneDecision records one structural auto-tuner routing choice and
// every stat that fed it, so bench sweeps can validate the policy and
// mis-routing is diagnosable from the report alone. Stats keys are the
// probe field names ("degree_gini", "hub_edge_coverage_pct", ...);
// encoding/json sorts map keys, so the block is byte-stable.
type TuneDecision struct {
	// Algorithm is the registry kernel the tuner routed the run to.
	Algorithm string `json:"algorithm"`
	// Phase1Kernel / IntersectKernel are the kernel knobs the policy
	// selected for the chosen algorithm ("" = engine default).
	Phase1Kernel    string `json:"phase1_kernel,omitempty"`
	IntersectKernel string `json:"intersect_kernel,omitempty"`
	// Reason is the one-line policy explanation ("hub coverage 72.4%
	// >= 40: LOTUS hub structures capture the work").
	Reason string `json:"reason"`
	// Overridden marks decisions forced by an ablation override; the
	// Reason then names the override.
	Overridden bool `json:"overridden,omitempty"`
	// ProbeNS is the wall time of the structural probe.
	ProbeNS int64 `json:"probe_ns"`
	// Stats holds the probe values the scoring policy read.
	Stats map[string]float64 `json:"stats,omitempty"`
}

// RunReport is the machine-readable outcome of one counting (or
// replay) run; schema documented in DESIGN.md ("Observability").
type RunReport struct {
	Schema    string    `json:"schema"`
	Tool      string    `json:"tool"`
	Timestamp time.Time `json:"timestamp"`
	Env       Env       `json:"env"`
	Graph     GraphInfo `json:"graph"`
	Algorithm string    `json:"algorithm"`
	Workers   int       `json:"workers"`
	Triangles uint64    `json:"triangles"`
	ElapsedNS int64     `json:"elapsed_ns"`
	// Phases appear in execution order (preprocess, phase1, hnn, nnn
	// for the LOTUS kernels; baseline kernels report their own).
	Phases []PhaseNS `json:"phases,omitempty"`
	// Classes is present for kernels that report the class breakdown.
	Classes *Classes `json:"classes,omitempty"`
	// Metrics is the counter snapshot (names in DESIGN.md); absent
	// when the run was not instrumented.
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// Events carries modeled hardware events (lotus-perf): kernel
	// name -> event name -> count.
	Events map[string]map[string]uint64 `json:"events,omitempty"`
	// Decision is the structural auto-tuner's routing record, present
	// on "auto" runs only (additive; schema stays v1).
	Decision *TuneDecision `json:"decision,omitempty"`
	// Error is set when the run failed; the other result fields are
	// then unspecified.
	Error string `json:"error,omitempty"`
}

// NewRunReport returns a RunReport with the schema, tool, timestamp
// and environment fields filled in.
func NewRunReport(tool string) *RunReport {
	return &RunReport{
		Schema:    SchemaRun,
		Tool:      tool,
		Timestamp: time.Now().UTC(),
		Env:       CurrentEnv(),
	}
}

// WriteJSON writes the report as indented JSON followed by a newline.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
