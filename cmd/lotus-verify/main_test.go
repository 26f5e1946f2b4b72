package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerifyPasses(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rounds", "5", "-maxn", "40", "-kmax", "4"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "0 failures") {
		t.Fatalf("unexpected summary: %q", out)
	}
}

func TestVerifyBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d", code)
	}
}

func TestVerifyDifferentSeeds(t *testing.T) {
	for _, seed := range []string{"2", "99"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-rounds", "3", "-maxn", "30", "-seed", seed}, &stdout, &stderr); code != 0 {
			t.Fatalf("seed %s: exit %d\n%s", seed, code, stderr.String())
		}
	}
}

// TestVerifyMaxNBelowFour: the random battery draws graphs of 4 to
// maxn vertices, so a smaller -maxn is a usage error (exit 2, nothing
// on stdout) rather than a panic in the draw.
func TestVerifyMaxNBelowFour(t *testing.T) {
	for _, maxn := range []string{"3", "0"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-rounds", "1", "-maxn", maxn}, &stdout, &stderr); code != 2 {
			t.Fatalf("-maxn %s: exit %d, want 2\n%s", maxn, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Fatalf("-maxn %s: stdout %q, want empty", maxn, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rounds", "3", "-maxn", "4", "-kmax", "4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-maxn 4: exit %d\n%s", code, stderr.String())
	}
}
