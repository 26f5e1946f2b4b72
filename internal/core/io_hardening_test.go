package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"lotustc/internal/gen"
)

// The serialized header layout (io.go): magic 0..4, version 4..8,
// hubCount 8..12, numVerts 12..20, heEdges 20..28, nheEdges 28..36,
// then heOffsets. These offsets let the corpus below target specific
// fields of a valid stream.
const (
	hdrHubCount = 4 + 4
	hdrNumVerts = hdrHubCount + 4
	hdrHeEdges  = hdrNumVerts + 8
	hdrNheEdges = hdrHeEdges + 8
	hdrEnd      = hdrNheEdges + 8
)

func validStream(t *testing.T) []byte {
	t.Helper()
	lg := Preprocess(gen.Complete(12), Options{HubCount: 4, Pool: pool})
	var buf bytes.Buffer
	if err := lg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func putU32(data []byte, off int, v uint32) { binary.LittleEndian.PutUint32(data[off:], v) }
func putU64(data []byte, off int, v uint64) { binary.LittleEndian.PutUint64(data[off:], v) }

// TestReadLotusGraphCorruptCorpus runs the loader over a corpus of
// deliberately corrupted streams. Every entry must come back as an
// error — never a panic, and never an allocation proportional to the
// corrupt size field (huge sizes are rejected arithmetically before
// any size-derived make).
func TestReadLotusGraphCorruptCorpus(t *testing.T) {
	base := validStream(t)
	nv := binary.LittleEndian.Uint64(base[hdrNumVerts:])

	corpus := []struct {
		name   string
		mutate func(d []byte) []byte
	}{
		{"huge vertex count", func(d []byte) []byte {
			putU64(d, hdrNumVerts, 1<<40)
			return d
		}},
		{"huge HE edge count", func(d []byte) []byte {
			putU64(d, hdrHeEdges, ^uint64(0))
			return d
		}},
		{"huge NHE edge count", func(d []byte) []byte {
			putU64(d, hdrNheEdges, 1<<62)
			return d
		}},
		{"hub count beyond vertex count", func(d []byte) []byte {
			putU32(d, hdrHubCount, uint32(nv)+1)
			return d
		}},
		// A 2^31 hub count implies a ~256 PB H2H array; the 16-bit hub
		// ID bound must reject it before NewTri is reached. The vertex
		// count is raised too, so the hubCount <= nv check alone cannot
		// save us.
		{"hub count beyond 16-bit ID space", func(d []byte) []byte {
			putU64(d, hdrNumVerts, 1<<31+10)
			putU32(d, hdrHubCount, 1<<31)
			return d
		}},
		{"non-monotone HE offsets", func(d []byte) []byte {
			// heOffsets[1] = -1 < heOffsets[0] = 0.
			putU64(d, hdrEnd+8, ^uint64(0))
			return d
		}},
		{"HE offsets ending short of edge count", func(d []byte) []byte {
			putU64(d, hdrEnd+int(nv)*8, 0)
			return d
		}},
		{"relabeling value out of range", func(d []byte) []byte {
			putU32(d, len(d)-4, ^uint32(0))
			return d
		}},
		{"relabeling with duplicate", func(d []byte) []byte {
			copy(d[len(d)-4:], d[len(d)-8:len(d)-4])
			return d
		}},
	}
	for _, c := range corpus {
		t.Run(c.name, func(t *testing.T) {
			data := c.mutate(append([]byte(nil), base...))
			if _, err := ReadLotusGraph(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt stream accepted")
			}
		})
	}
}

// TestReadLotusGraphTruncations feeds every prefix of a valid stream
// to the loader: all must error (io.ErrUnexpectedEOF family), none may
// panic or succeed.
func TestReadLotusGraphTruncations(t *testing.T) {
	base := validStream(t)
	for i := 0; i < len(base); i++ {
		if _, err := ReadLotusGraph(bytes.NewReader(base[:i])); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

// TestLotusGraphRoundTripRMAT12 round-trips a scale-12 R-MAT graph
// through the binary format and requires bit-identical structures and
// identical counts.
func TestLotusGraphRoundTripRMAT12(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(12, 16, 7))
	lg := Preprocess(g, Options{Pool: pool})
	var buf bytes.Buffer
	if err := lg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lg2, err := ReadLotusGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lg2.Shards[0].HE.Raw(), lg.Shards[0].HE.Raw()) ||
		!reflect.DeepEqual(lg2.Shards[0].NHE.Raw(), lg.Shards[0].NHE.Raw()) ||
		!reflect.DeepEqual(lg2.Relabeling, lg.Relabeling) {
		t.Fatal("scale-12 payload mismatch after round trip")
	}
	a, b := lg.Count(pool), lg2.Count(pool)
	if a.Total != b.Total || a.HHH != b.HHH || a.HHN != b.HHN || a.HNN != b.HNN || a.NNN != b.NNN {
		t.Fatalf("counts differ after round trip: %+v vs %+v", a, b)
	}
}
