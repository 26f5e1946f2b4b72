package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Binary graph file format ("LOTG"):
//
//	magic   [4]byte  "LOTG"
//	version uint32   1
//	flags   uint32   bit0 = oriented
//	V       uint64
//	E       uint64   number of stored adjacency slots (len nbrs)
//	offsets [V+1]int64
//	nbrs    [E]uint32
//
// All fields are little-endian. The format mirrors the in-memory CSX
// layout so loading is a straight sequential read.

const (
	fileMagic   = "LOTG"
	fileVersion = 1
)

// WriteBinary serializes g to w in the LOTG format.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	var flags uint32
	if g.Oriented {
		flags |= 1
	}
	hdr := []any{uint32(fileVersion), flags, uint64(g.NumVertices()), uint64(len(g.nbrs))}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.nbrs); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary parses a LOTG stream produced by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var version, flags uint32
	var nv, ne uint64
	for _, p := range []any{&version, &flags, &nv, &ne} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	if version != fileVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	if nv >= 1<<32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds 32-bit IDs", nv)
	}
	// Read the arrays in bounded chunks so a malicious header cannot
	// force a huge up-front allocation: memory grows only as data
	// actually arrives.
	const chunk = 1 << 20
	offsets := make([]int64, 0, minU64(nv+1, chunk))
	for read := uint64(0); read < nv+1; {
		n := minU64(nv+1-read, chunk)
		buf := make([]int64, n)
		if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: reading offsets: %w", err)
		}
		offsets = append(offsets, buf...)
		read += n
	}
	nbrs := make([]uint32, 0, minU64(ne, chunk))
	for read := uint64(0); read < ne; {
		n := minU64(ne-read, chunk)
		buf := make([]uint32, n)
		if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: reading neighbours: %w", err)
		}
		nbrs = append(nbrs, buf...)
		read += n
	}
	if offsets[0] != 0 || offsets[nv] != int64(ne) {
		return nil, fmt.Errorf("graph: inconsistent offsets")
	}
	for i := uint64(1); i <= nv; i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	for _, u := range nbrs {
		if uint64(u) >= nv {
			return nil, fmt.Errorf("graph: neighbour ID %d out of range", u)
		}
	}
	return &Graph{offsets: offsets, nbrs: nbrs, Oriented: flags&1 != 0}, nil
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// SaveFile writes g to path in the LOTG format.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a LOTG file from path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

// ReadEdgeList parses a whitespace-separated textual edge list ("u v"
// per line; '#' and '%' comment lines ignored) into a symmetric graph.
// This is the interchange format of SNAP/KONECT dumps.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || txt[0] == '#' || txt[0] == '%' {
			continue
		}
		fields := strings.Fields(txt)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: need two vertex IDs", line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		edges = append(edges, Edge{U: uint32(u), V: uint32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromEdges(edges, BuildOptions{}), nil
}
