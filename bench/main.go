// Command bench is the repository benchmark. It drives lotustc's
// layers from the outside on four seeded workloads, checks every
// result against a reference count, and prints the end-to-end metrics
// (with -trace 1, the per-layer metrics) as the last line of its
// output, one JSON object.
//
//	go run . -workload count-skewed -seed 1 -seconds 20 -trace 0
//
// README.md in this directory documents the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	phase    time.Duration // the timed phase
	trace    bool
	traceOut string
	workDir  string // temporary files and the default trace file
	size     sizes
	// corruptReference adds one to every reference count, so every
	// check fails; the smoke test uses it.
	corruptReference bool
}

// sizes fixes the inputs' sizes. The smoke test shrinks them.
type sizes struct {
	countScale  uint // count-*: log2 |V| of every graph
	edgeFactor  int
	serveScale  uint // serve-*: log2 |V| of the queried R-MAT specs
	hotSet      int  // serve-*: specs prefilled, then re-queried warm
	streamScale uint // serve-stream: log2 |V| of the streamed R-MAT
	streamHubs  int  // hubs of every exact stream session
	batch       int  // edges per ingest request
	setupReps   int  // set-up repetitions; setup_s is their median
	censusReps  int  // repetitions of the per-layer census
}

func defaultSizes() sizes {
	return sizes{countScale: 15, edgeFactor: 16, serveScale: 12, hotSet: 8, streamScale: 16,
		streamHubs: 1024, batch: 4096, setupReps: 3, censusReps: 5}
}

// workload is a prepared workload: inputs generated, references
// computed, set-up done.
type workload interface {
	// loop drives the workload for d, finishing the round in flight,
	// and reports what it measured. A non-nil tracer records spans.
	loop(d time.Duration, tr *tracer) phaseStats
	// censusInput names the inputs the per-layer census replays.
	censusInput() censusInput
	close()
}

// prepStats times the work before the timed phase.
type prepStats struct {
	setup []time.Duration // each set-up repetition
	gen   []time.Duration // generating the workload's graphs
}

// phaseStats is what one timed phase measured.
type phaseStats struct {
	wall     time.Duration
	latency  []time.Duration // one per operation: round, request or ingest batch
	requests int64           // engine calls or HTTP requests completed
	edges    int64           // input edges counted or ingested
	alloc    uint64          // bytes allocated during the phase
	layer    map[string]float64
	samples  map[string]int // sample counts behind the layer percentiles
}

var workloads = map[string]func(b *bench) (workload, prepStats, error){
	"count-skewed": func(b *bench) (workload, prepStats, error) { return newCount(b, false) },
	"count-flat":   func(b *bench) (workload, prepStats, error) { return newCount(b, true) },
	"serve-query":  newServeQuery,
	"serve-stream": newServeStream,
}

// bench is the state one run shares.
type bench struct {
	cfg   config
	nproc int
	tally tally
	ops   atomic.Int64
}

func (b *bench) nextOp() int64 { return b.ops.Add(1) }

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run prepares the workload and measures it. Without tracing it runs
// one timed phase, probes the host before set-up and after the phase,
// and reports the end-to-end metrics scaled by the host factor. With
// tracing it splits the phase into an untraced and a traced half, whose
// latency gap is the tracing overhead, then runs the per-layer census.
func run(cfg config, stderr io.Writer) (*result, *envelope, error) {
	newWorkload, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("work directory: %w", err)
	}
	b := &bench{cfg: cfg, nproc: runtime.NumCPU()}
	var probe []time.Duration
	if !cfg.trace {
		probe = probeHost(b.nproc, hostProbeSamples)
		runtime.GC() // the probe's table is garbage before set-up starts
	}
	w, prep, err := newWorkload(b)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	env := newEnvelope(cfg)
	var values map[string]float64
	units := endToEndUnits
	if !cfg.trace {
		st := w.loop(cfg.phase, nil)
		env.RawMetrics = endToEnd(st, prep, liveHeapMB())
		probe = append(probe, probeHost(b.nproc, hostProbeSamples)...)
		env.HostProbeMS = medianMS(probe)
		env.HostFactor = hostProbeReferenceMS / env.HostProbeMS
		values = hostScaled(env.RawMetrics, env.HostFactor)
		fmt.Fprintf(stderr, "host probe %.3f ms (reference %.3f ms): times scaled by %.4f\n",
			env.HostProbeMS, hostProbeReferenceMS, env.HostFactor)
		env.Samples["host_probe_ms"] = len(probe)
		env.Samples["latency_p50_ms"] = len(st.latency)
		env.Samples["latency_p90_ms"] = len(st.latency)
		env.Samples["setup_s"] = len(prep.setup)
	} else {
		units = perLayerUnits
		plain := w.loop(cfg.phase/2, nil)
		tr := newTracer()
		traced := w.loop(cfg.phase/2, tr)
		var samples map[string]int
		if values, samples, err = b.census(w.censusInput(), prep); err != nil {
			return nil, nil, err
		}
		maps.Copy(values, traced.layer)
		maps.Copy(samples, traced.samples)
		maps.Copy(env.Samples, samples)
		plainMS, tracedMS := ms(quantile(plain.latency, 0.5)), ms(quantile(traced.latency, 0.5))
		values["trace.overhead_pct"] = 100 * ratio(tracedMS-plainMS, plainMS)
		env.Samples["trace.overhead_pct"] = min(len(plain.latency), len(traced.latency))
		fmt.Fprintf(stderr, "tracing overhead: untraced p50 %.3f ms, traced p50 %.3f ms\n", plainMS, tracedMS)
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		}
		if err := tr.writeFile(path, cfg.workload, cfg.seed); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "spans written to %s\n", path)
		tr.printSelfTimes(stderr)
	}
	res := &result{Attempted: b.tally.attempted.Load(), Failed: b.tally.failed.Load(), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for name, unit := range units {
		x, ok := values[name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, nil, fmt.Errorf("metric %s was not measured (value %v)", name, x)
		}
		res.Metrics[name] = metric{x, unit}
	}
	b.tally.report(stderr)
	return res, env, nil
}

// endToEnd derives the end-to-end metrics from a timed phase.
func endToEnd(st phaseStats, prep prepStats, heapMB float64) map[string]float64 {
	return map[string]float64{
		"setup_s":            medianMS(prep.setup) / 1e3,
		"edges_per_s":        float64(st.edges) / st.wall.Seconds(),
		"requests_per_s":     float64(st.requests) / st.wall.Seconds(),
		"latency_p50_ms":     ms(quantile(st.latency, 0.5)),
		"latency_p90_ms":     ms(quantile(st.latency, 0.9)),
		"alloc_bytes_per_op": ratio(float64(st.alloc), float64(len(st.latency))),
		"live_heap_mb":       heapMB,
	}
}

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// totalAlloc reads the process's cumulative heap allocation.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeapMB collects garbage, then reads the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// envelope records the conditions of a run.
type envelope struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	PhaseS     float64        `json:"phase_s"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	LLC        string         `json:"llc"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Samples    map[string]int `json:"samples"`
	// HostProbeMS is the host probe's median over this run, and
	// HostFactor the reference time over it; RawMetrics are the
	// end-to-end metrics before scaling by HostFactor.
	HostProbeMS float64            `json:"host_probe_ms,omitempty"`
	HostFactor  float64            `json:"host_factor,omitempty"`
	RawMetrics  map[string]float64 `json:"raw_metrics,omitempty"`
}

func newEnvelope(cfg config) *envelope {
	e := &envelope{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, PhaseS: cfg.phase.Seconds(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Samples: map[string]int{},
	}
	e.CPUModel, e.LLC = cpuInfo()
	return e
}

// cpuInfo reads the CPU model and last-level cache size.
func cpuInfo() (model, llc string) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() && (model == "" || llc == "") {
		key, val, ok := strings.Cut(sc.Text(), ":")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case !ok:
		case key == "model name" && model == "":
			model = val
		case key == "cache size" && llc == "":
			llc = val
		}
	}
	return model, llc
}

// commit names the source revision: the build's VCS stamp, or HEAD of
// a git checkout in the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "unknown"
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	cfg := config{size: defaultSizes()}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file (default <workdir>/trace-<workload>-<seed>.json)")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for temporary files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("-workload must be one of %s", strings.Join(names, ", "))
	}
	if cfg.seed < 0 || cfg.seed >= 1<<32 {
		// Cold serve-query seeds are derived from it and must not
		// collide with the hot set's.
		return cfg, errors.New("-seed must be in [0, 2^32)")
	}
	if *seconds < 1 {
		return cfg, errors.New("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return cfg, errors.New("-trace must be 0 or 1")
	}
	cfg.phase = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(2)
	}
	res, env, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]*envelope{"envelope": env}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d checked operations failed\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}
