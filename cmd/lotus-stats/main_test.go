package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"lotustc/internal/gen"
)

func TestStatsOnRMAT(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rmat", "9", "-edgefactor", "6"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, section := range []string{"vertices:", "components:", "Table 1", "Table 7", "Table 8", "Fig 8", "Degree histogram"} {
		if !strings.Contains(out, section) {
			t.Errorf("missing section %q", section)
		}
	}
}

func TestStatsOnFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.lotg")
	if err := gen.HubAndSpokes(4, 100, 2, 1).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-graph", path, "-hubs", "4"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "hub count 4") {
		t.Fatalf("hub count not honored: %q", stdout.String())
	}
}

func TestStatsErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatal("no input should exit 2")
	}
	if code := run([]string{"-graph", "/missing"}, &stdout, &stderr); code != 1 {
		t.Fatal("missing file should exit 1")
	}
	if code := run([]string{"-junkflag"}, &stdout, &stderr); code != 2 {
		t.Fatal("bad flag should exit 2")
	}
}

// TestExpiredTimeoutExits1: a -timeout that has passed before
// preprocessing makes lotus-stats exit 1 with the deadline, not panic.
func TestExpiredTimeoutExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rmat", "8", "-timeout", "1ns"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "deadline exceeded") {
		t.Fatalf("exit %d, stderr %q; want 1 and the deadline", code, stderr.String())
	}
}
