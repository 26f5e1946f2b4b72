package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lotustc/internal/obs"
)

func TestEvents(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rmat", "9", "-edgefactor", "6"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"LLC misses", "DTLB misses", "branch misses", "est. cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing row %q", want)
		}
	}
}

func TestMRCMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rmat", "9", "-edgefactor", "6", "-mrc"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "forward") || !strings.Contains(out, "lotus") {
		t.Fatalf("missing curves: %q", out)
	}
}

func TestMachineModels(t *testing.T) {
	for _, m := range []string{"skylakex", "haswell", "epyc", "scaled"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-rmat", "8", "-machine", m}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d", m, code)
		}
	}
}

func TestErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatal("no input should exit 2")
	}
	if code := run([]string{"-rmat", "8", "-machine", "vax"}, &stdout, &stderr); code != 2 {
		t.Fatal("unknown machine should exit 2")
	}
	if code := run([]string{"-graph", "/missing"}, &stdout, &stderr); code != 1 {
		t.Fatal("missing file should exit 1")
	}
	if code := run([]string{"-zap"}, &stdout, &stderr); code != 2 {
		t.Fatal("bad flag should exit 2")
	}
}

func TestJSONReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rmat", "8", "-edgefactor", "6", "-report", "json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var rr obs.RunReport
	if err := json.Unmarshal(stdout.Bytes(), &rr); err != nil {
		t.Fatalf("stdout is not valid JSON: %v", err)
	}
	if rr.Schema != obs.SchemaRun || rr.Tool != "lotus-perf" {
		t.Fatalf("bad envelope: %+v", rr)
	}
	for _, kernel := range []string{"forward", "lotus"} {
		ev := rr.Events[kernel]
		if ev == nil {
			t.Fatalf("events for %q missing", kernel)
		}
		for _, name := range []string{"llc_misses", "dtlb_misses", "mem_accesses",
			"instructions", "branch_misses", "est_cycles"} {
			if _, ok := ev[name]; !ok {
				t.Errorf("%s: event %q missing", kernel, name)
			}
		}
	}
}

func TestJSONReportFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rmat", "8", "-report", "toml"}, &stdout, &stderr); code != 2 {
		t.Fatal("unknown report format should exit 2")
	}
	if code := run([]string{"-rmat", "8", "-report", "json", "-mrc"}, &stdout, &stderr); code != 2 {
		t.Fatal("-report json with -mrc should exit 2")
	}
}

// TestExpiredTimeoutExits1: a -timeout that has passed before
// preprocessing makes lotus-perf exit 1 with the deadline, not panic.
func TestExpiredTimeoutExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rmat", "8", "-timeout", "1ns"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "deadline exceeded") {
		t.Fatalf("exit %d, stderr %q; want 1 and the deadline", code, stderr.String())
	}
}
