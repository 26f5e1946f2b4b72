package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lotustc"
	"lotustc/internal/obs"
)

func runTC(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCountRMATAllAlgorithms(t *testing.T) {
	var want string
	for _, algo := range lotustc.Algorithms() {
		code, out, errOut := runTC(t, "-rmat", "8", "-edgefactor", "6", "-algo", string(algo))
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", algo, code, errOut)
		}
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "triangles:") {
				line = l
			}
		}
		if line == "" {
			t.Fatalf("%s: no triangle line in %q", algo, out)
		}
		if want == "" {
			want = line
		} else if line != want {
			t.Fatalf("%s reports %q, others %q", algo, line, want)
		}
	}
}

func TestVerboseBreakdown(t *testing.T) {
	code, out, _ := runTC(t, "-rmat", "8", "-v")
	if code != 0 {
		t.Fatal("verbose run failed")
	}
	if !strings.Contains(out, "breakdown:") || !strings.Contains(out, "classes:") {
		t.Fatalf("missing verbose sections: %q", out)
	}
}

func TestLoadFromFileAndEdgeList(t *testing.T) {
	dir := t.TempDir()
	g := lotustc.Complete(6) // 20 triangles
	lotg := filepath.Join(dir, "k6.lotg")
	if err := lotustc.SaveGraph(g, lotg); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runTC(t, "-graph", lotg)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "triangles: 20") {
		t.Fatalf("K6 output: %q", out)
	}

	el := filepath.Join(dir, "tri.txt")
	if err := os.WriteFile(el, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runTC(t, "-edgelist", el)
	if code != 0 || !strings.Contains(out, "triangles: 1") {
		t.Fatalf("edge list run: code %d out %q", code, out)
	}
}

func TestKCliqueFlag(t *testing.T) {
	dir := t.TempDir()
	lotg := filepath.Join(dir, "k6.lotg")
	if err := lotustc.SaveGraph(lotustc.Complete(6), lotg); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runTC(t, "-graph", lotg, "-k", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "4-cliques: 15") {
		t.Fatalf("K6 4-cliques output: %q", out)
	}
	// Generic path too.
	code, out, _ = runTC(t, "-graph", lotg, "-k", "5", "-algo", "forward")
	if code != 0 || !strings.Contains(out, "5-cliques: 6") {
		t.Fatalf("generic k=5: code %d out %q", code, out)
	}
}

func TestAlgosListing(t *testing.T) {
	code, out, _ := runTC(t, "-algos")
	if code != 0 {
		t.Fatal("algos listing failed")
	}
	for _, a := range lotustc.Algorithms() {
		if !strings.Contains(out, string(a)) {
			t.Fatalf("missing %s in listing", a)
		}
	}
}

// TestRecursiveLotusRetired: the recursive NHE split is no longer a
// registered algorithm, so naming it fails like any unknown name, and
// the listing holds the 14 that remain.
func TestRecursiveLotusRetired(t *testing.T) {
	if code, out, _ := runTC(t, "-rmat", "6", "-algo", "lotus-recursive"); code != 1 || strings.Contains(out, "triangles:") {
		t.Fatalf("-algo lotus-recursive: exit %d, output %q; want exit 1 and no count", code, out)
	}
	code, out, _ := runTC(t, "-algos")
	if code != 0 {
		t.Fatalf("-algos: exit %d", code)
	}
	names := strings.Fields(out)
	if len(names) != 14 {
		t.Fatalf("-algos lists %d names, want 14: %v", len(names), names)
	}
	for _, name := range names {
		if name == "lotus-recursive" || name == "lotus-sharded" {
			t.Fatalf("-algos still lists %s", name)
		}
	}
}

// TestShardsFlag: the grid dimension is a parameter of lotus, not an
// algorithm of its own. The retired lotus-sharded name fails like any
// unknown name; -shards outside [0, MaxGrid], or with an algorithm
// that never counts over a LOTUS grid, is a usage error.
func TestShardsFlag(t *testing.T) {
	if code, out, _ := runTC(t, "-rmat", "6", "-algo", "lotus-sharded", "-shards", "2"); code != 1 || strings.Contains(out, "triangles:") {
		t.Fatalf("-algo lotus-sharded: exit %d, output %q; want exit 1 and no count", code, out)
	}
	for _, args := range [][]string{
		{"-rmat", "6", "-shards", "-1"},
		{"-rmat", "6", "-shards", "65"},
		{"-rmat", "6", "-algo", "forward", "-shards", "2"},
	} {
		if code, out, _ := runTC(t, args...); code != 2 || strings.Contains(out, "triangles:") {
			t.Fatalf("%v: exit %d, output %q; want exit 2 and no count", args, code, out)
		}
	}
	_, flat, _ := runTC(t, "-rmat", "8", "-v")
	for _, algo := range []string{"lotus", "auto"} {
		code, out, errOut := runTC(t, "-rmat", "8", "-algo", algo, "-shards", "3", "-v")
		if code != 0 {
			t.Fatalf("-algo %s -shards 3: exit %d: %s", algo, code, errOut)
		}
		if line := classesLine(out); line == "" || line != classesLine(flat) {
			t.Fatalf("-algo %s -shards 3 classes %q, flat lotus %q", algo, line, classesLine(flat))
		}
	}
}

// TestKCliquesRejectShards: k-cliques count over the flat structure,
// so -shards above 1 with -k > 3 is a usage error that names the
// flag, not a silently flat count; -shards 1 is the flat structure
// and still counts.
func TestKCliquesRejectShards(t *testing.T) {
	code, out, errOut := runTC(t, "-rmat", "8", "-k", "4", "-shards", "3")
	if code != 2 || strings.Contains(out, "cliques:") || !strings.Contains(errOut, "-shards") {
		t.Fatalf("-k 4 -shards 3: exit %d, stdout %q, stderr %q; want exit 2, no count, a -shards message", code, out, errOut)
	}
	if code, out, errOut := runTC(t, "-rmat", "8", "-k", "4", "-shards", "1"); code != 0 || !strings.Contains(out, "4-cliques:") {
		t.Fatalf("-k 4 -shards 1: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

// classesLine returns the "classes:" line of a -v run's output.
func classesLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "classes:") {
			return line
		}
	}
	return ""
}

func TestErrors(t *testing.T) {
	if code, _, _ := runTC(t); code != 2 {
		t.Fatal("no input should exit 2")
	}
	if code, _, _ := runTC(t, "-graph", "/does/not/exist"); code != 1 {
		t.Fatal("missing file should exit 1")
	}
	if code, _, _ := runTC(t, "-rmat", "6", "-algo", "bogus"); code != 1 {
		t.Fatal("bad algorithm should exit 1")
	}
	if code, _, _ := runTC(t, "-badflag"); code != 2 {
		t.Fatal("bad flag should exit 2")
	}
}

func TestJSONReport(t *testing.T) {
	code, out, errOut := runTC(t, "-rmat", "9", "-edgefactor", "8", "-report", "json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var rr obs.RunReport
	if err := json.Unmarshal([]byte(out), &rr); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, out)
	}
	if rr.Schema != obs.SchemaRun || rr.Tool != "lotus-tc" || rr.Algorithm != "lotus" {
		t.Fatalf("bad envelope: %+v", rr)
	}
	if rr.Triangles == 0 || rr.ElapsedNS <= 0 {
		t.Fatalf("empty result: %+v", rr)
	}
	phases := map[string]bool{}
	for _, p := range rr.Phases {
		phases[p.Name] = true
	}
	for _, name := range []string{"preprocess", "phase1", "hnn", "nnn"} {
		if !phases[name] {
			t.Errorf("phase %q missing from JSON report", name)
		}
	}
	if rr.Classes == nil {
		t.Error("class split missing")
	}
	for _, name := range []string{"phase1.claims", "phase1.h2h_probes", "hnn.he_intersections",
		"nnn.nhe_intersections", "lotus.h2h_bits", "run.workers"} {
		if _, ok := rr.Metrics[name]; !ok {
			t.Errorf("metric %q missing from JSON report", name)
		}
	}
}

func TestJSONReportBaseline(t *testing.T) {
	code, out, errOut := runTC(t, "-rmat", "8", "-edgefactor", "6", "-algo", "forward", "-report", "json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var rr obs.RunReport
	if err := json.Unmarshal([]byte(out), &rr); err != nil {
		t.Fatal(err)
	}
	if _, ok := rr.Metrics["baseline.count.ns"]; !ok {
		t.Fatalf("baseline metrics missing: %v", rr.Metrics)
	}
	if rr.Classes != nil {
		t.Fatal("baseline run must not report a class split")
	}
}

func TestJSONReportFlagValidation(t *testing.T) {
	if code, _, _ := runTC(t, "-rmat", "6", "-report", "yaml"); code != 2 {
		t.Fatal("unknown report format should exit 2")
	}
	if code, _, _ := runTC(t, "-rmat", "6", "-k", "4", "-report", "json"); code != 2 {
		t.Fatal("-report json with k-cliques should exit 2")
	}
}

// TestShardedReportsLotusPhases: lotus over a 2-way grid runs the flat
// count's three phases, so -v prints the same breakdown as p = 1 and
// the JSON report carries preprocess, phase1, hnn and nnn rows (no
// single count row) with the flat count's per-phase counters.
func TestShardedReportsLotusPhases(t *testing.T) {
	code, out, errOut := runTC(t, "-rmat", "9", "-edgefactor", "8", "-shards", "2", "-v")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "algorithm: lotus\n") ||
		!strings.Contains(out, "breakdown: preprocess ") || !strings.Contains(out, ", HHH+HHN ") ||
		!strings.Contains(out, ", HNN ") || !strings.Contains(out, ", NNN ") || strings.Contains(out, ", count ") {
		t.Fatalf("sharded -v output lacks the three-phase breakdown: %q", out)
	}

	code, out, errOut = runTC(t, "-rmat", "9", "-edgefactor", "8", "-shards", "2", "-report", "json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var rr obs.RunReport
	if err := json.Unmarshal([]byte(out), &rr); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, out)
	}
	var names []string
	for _, p := range rr.Phases {
		names = append(names, p.Name)
		if p.Name != "preprocess" && p.NS <= 0 {
			t.Errorf("phase %q has no time", p.Name)
		}
	}
	if got := strings.Join(names, ","); got != "preprocess,phase1,hnn,nnn" {
		t.Fatalf("sharded JSON phases = %s, want preprocess,phase1,hnn,nnn", got)
	}
	if rr.Classes == nil || rr.Classes.HHH+rr.Classes.HHN+rr.Classes.HNN+rr.Classes.NNN != rr.Triangles {
		t.Fatalf("class split %+v does not sum to %d triangles", rr.Classes, rr.Triangles)
	}
	for _, name := range []string{"phase1.claims", "phase1.h2h_probes", "hnn.he_intersections",
		"nnn.nhe_intersections", "shard.triples"} {
		if _, ok := rr.Metrics[name]; !ok {
			t.Errorf("metric %q missing from sharded JSON report", name)
		}
	}
	if got := rr.Metrics["shard.blocks"]; got != 2 {
		t.Errorf("shard.blocks = %d, want 2", got)
	}
}
