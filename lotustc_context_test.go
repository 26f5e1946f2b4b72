package lotustc

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestCountNilGraph(t *testing.T) {
	if _, err := Count(nil, Options{}); err == nil {
		t.Fatal("nil graph should error, not panic")
	}
	if _, err := CountContext(context.Background(), nil, Options{}); err == nil {
		t.Fatal("nil graph should error through CountContext too")
	}
}

func TestCountContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CountContext(ctx, RMAT(10, 8, 42), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCountTimeoutOption(t *testing.T) {
	scale := uint(16)
	if testing.Short() {
		scale = 13
	}
	g := RMAT(scale, 16, 42)
	_, err := Count(g, Options{Timeout: time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	// A generous timeout must not perturb the count.
	res, err := Count(g, Options{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Count(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want.Triangles {
		t.Fatalf("timeout-bounded count %d != unbounded %d", res.Triangles, want.Triangles)
	}
}
