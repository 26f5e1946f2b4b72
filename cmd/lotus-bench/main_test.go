package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"table1", "table5", "fig9", "ext-kclique"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("listing missing %s", id)
		}
	}
}

func TestRunOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "fig8", "-scale", "8", "-edgefactor", "6"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Fig 8") {
		t.Fatalf("unexpected output: %q", stdout.String())
	}
}

func TestErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatal("no args should exit 2")
	}
	if code := run([]string{"-exp", "ghost"}, &stdout, &stderr); code != 2 {
		t.Fatal("unknown experiment should exit 2")
	}
	if code := run([]string{"-wat"}, &stdout, &stderr); code != 2 {
		t.Fatal("bad flag should exit 2")
	}
}

// TestRemovedFlagsRejected: the flags of the retired JSON comparator
// sweep must fail flag parsing (exit 2), never be accepted and then
// silently ignored by the experiment they ride along with.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, flagArgs := range [][]string{
		{"-report", "json"},
		{"-o", "out.json"},
		{"-phase1", "word"},
		{"-intersect", "merge"},
		{"-shards", "2"},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-exp", "table5", "-scale", "8", "-edgefactor", "6"}, flagArgs...)
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", flagArgs, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: experiment ran anyway: %q", flagArgs, stdout.String())
		}
	}
}

// TestRemovedExperimentsRejected: the experiments of the retired fused
// and blocked HNN loops, recursive LOTUS and the materialize-then-split
// preprocessor are unknown IDs (exit 2) and print no table.
func TestRemovedExperimentsRejected(t *testing.T) {
	for _, id := range []string{"ablation-fused", "ext-hnnblock", "ext-recursive", "ablation-preprocess"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", id, "-scale", "8", "-edgefactor", "6"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", id, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: experiment ran anyway: %q", id, stdout.String())
		}
	}
}

// TestExpiredTimeoutExits1: a -timeout that has passed before the
// experiment's LOTUS builds makes lotus-bench exit 1 with the
// deadline, not panic.
func TestExpiredTimeoutExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "table7", "-scale", "8", "-edgefactor", "6", "-timeout", "1ns"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "deadline exceeded") {
		t.Fatalf("exit %d, stderr %q; want 1 and the deadline", code, stderr.String())
	}
}
