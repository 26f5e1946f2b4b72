package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lotustc/internal/gen"
)

func TestLotusGraphRoundTrip(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
	lg := Preprocess(g, Options{HubCount: 64, Pool: pool})
	var buf bytes.Buffer
	if err := lg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lg2, err := ReadLotusGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lg2.HubCount != lg.HubCount || lg2.NumVertices() != lg.NumVertices() {
		t.Fatal("shape mismatch")
	}
	if !reflect.DeepEqual(lg2.Shards[0].HE.Raw(), lg.Shards[0].HE.Raw()) ||
		!reflect.DeepEqual(lg2.Shards[0].NHE.Raw(), lg.Shards[0].NHE.Raw()) ||
		!reflect.DeepEqual(lg2.Relabeling, lg.Relabeling) {
		t.Fatal("payload mismatch")
	}
	if lg2.Shards[0].H2H.PopCount() != lg.Shards[0].H2H.PopCount() {
		t.Fatal("H2H mismatch")
	}
	a := lg.Count(pool)
	b := lg2.Count(pool)
	if a.Total != b.Total || a.HHH != b.HHH || a.NNN != b.NNN {
		t.Fatalf("counts differ after round trip: %+v vs %+v", a, b)
	}
}

func TestLotusGraphFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.lots")
	g := gen.HubAndSpokes(8, 100, 3, 1)
	lg := Preprocess(g, Options{HubCount: 8, Pool: pool})
	if err := lg.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	lg2, err := LoadLotusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lg2.Count(pool).Total != lg.Count(pool).Total {
		t.Fatal("file round trip count mismatch")
	}
	if _, err := LoadLotusFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestSaveFileRejectsGrid: the file format holds one shard, so saving
// (or writing) a 2-way structure fails, and SaveFile creates no file.
func TestSaveFileRejectsGrid(t *testing.T) {
	lg := Preprocess(gen.RMAT(gen.DefaultRMAT(8, 8, 3)), Options{Grid: 2, Pool: pool})
	path := filepath.Join(t.TempDir(), "grid.lots")
	if err := lg.SaveFile(path); err == nil {
		t.Fatal("SaveFile accepted a 2-way structure")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("SaveFile left a file behind: stat error %v", err)
	}
	if err := lg.Write(new(bytes.Buffer)); err == nil {
		t.Fatal("Write accepted a 2-way structure")
	}
}

// TestLotusGraphFileCompat loads a LOTS file written by an earlier
// build (testdata/rmat8-hubs24.lots: R-MAT scale 8, edge factor 8,
// seed 11, 24 hubs) and holds it to a fresh Preprocess of the same
// graph: it validates, counts the same totals and class split, and the
// fresh structure serializes to the file's exact bytes, so the on-disk
// format has not moved.
func TestLotusGraphFileCompat(t *testing.T) {
	path := filepath.Join("testdata", "rmat8-hubs24.lots")
	old, err := LoadLotusFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Validate(); err != nil {
		t.Fatal(err)
	}
	fresh := Preprocess(gen.RMAT(gen.DefaultRMAT(8, 8, 11)), Options{HubCount: 24, Pool: pool})
	a, b := old.Count(pool), fresh.Count(pool)
	if a.Total != b.Total || a.HHH != b.HHH || a.HHN != b.HHN || a.HNN != b.HNN || a.NNN != b.NNN {
		t.Fatalf("file counts %+v, fresh preprocess %+v", a, b)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("fresh structure serializes to %d bytes that differ from the %d-byte file", buf.Len(), len(want))
	}
}

func TestReadLotusGraphRejectsGarbage(t *testing.T) {
	if _, err := ReadLotusGraph(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadLotusGraph(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	// Corrupt a valid stream byte-by-byte over the header region:
	// every mutation must produce an error, not a panic or a silently
	// invalid structure (ReadLotusGraph validates).
	g := gen.Complete(12)
	lg := Preprocess(g, Options{HubCount: 4, Pool: pool})
	var buf bytes.Buffer
	if err := lg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := 0; i < 24 && i < len(data); i++ {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0xFF
		lg2, err := ReadLotusGraph(bytes.NewReader(mutated))
		if err == nil {
			// A mutation may coincidentally keep the structure valid
			// (e.g. flipping a don't-care bit); it must then count
			// consistently.
			if v := lg2.Validate(); v != nil {
				t.Fatalf("byte %d: accepted invalid structure: %v", i, v)
			}
		}
	}
}

func TestCountPerVertexSumsAndMatches(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 8, 3))
	lg := Preprocess(g, Options{HubCount: 32, Pool: pool})
	per := lg.Shards[0].CountPerVertex(pool)
	var sum uint64
	for _, c := range per {
		sum += c
	}
	res := lg.Count(pool)
	if sum != 3*res.Total {
		t.Fatalf("per-vertex sum %d != 3x%d", sum, res.Total)
	}
}

func TestCountPerVertexKnown(t *testing.T) {
	// K5 with 2 hubs: every vertex sits in C(4,2) = 6 triangles.
	lg := Preprocess(gen.Complete(5), Options{HubCount: 2, Pool: pool})
	for v, c := range lg.Shards[0].CountPerVertex(pool) {
		if c != 6 {
			t.Fatalf("K5 vertex %d count %d, want 6", v, c)
		}
	}
	// Star: all zeros.
	lgS := Preprocess(gen.Star(20), Options{HubCount: 2, Pool: pool})
	for v, c := range lgS.Shards[0].CountPerVertex(pool) {
		if c != 0 {
			t.Fatalf("star vertex %d count %d", v, c)
		}
	}
}

func TestCountPerVertexMatchesOracle(t *testing.T) {
	// Compare against a brute-force per-vertex count in original IDs.
	g := gen.HubAndSpokes(6, 50, 3, 2)
	lg := Preprocess(g, Options{HubCount: 6, Pool: pool})
	per := lg.Shards[0].CountPerVertex(pool)
	// Map back to original IDs via the relabeling array.
	orig := make([]uint64, g.NumVertices())
	for old := 0; old < g.NumVertices(); old++ {
		orig[old] = per[lg.Relabeling[old]]
	}
	// Oracle: enumerate triangles and bump corners.
	want := make([]uint64, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		nv := g.Neighbors(uint32(v))
		for i := 0; i < len(nv); i++ {
			if nv[i] >= uint32(v) {
				break
			}
			for j := i + 1; j < len(nv); j++ {
				if nv[j] >= uint32(v) {
					break
				}
				if g.HasEdge(nv[i], nv[j]) {
					want[v]++
					want[nv[i]]++
					want[nv[j]]++
				}
			}
		}
	}
	if !reflect.DeepEqual(orig, want) {
		t.Fatal("per-vertex counts do not match oracle")
	}
}
