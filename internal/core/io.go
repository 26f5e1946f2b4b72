package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"lotustc/internal/bitarray"
)

// LotusGraph binary format ("LOTS"): preprocessing averages ~20% of
// end-to-end time (Fig 6), so production deployments persist the
// preprocessed structure and amortize it across runs.
//
//	magic     [4]byte "LOTS"
//	version   uint32  1
//	hubCount  uint32
//	numVerts  uint64
//	heEdges   uint64
//	nheEdges  uint64
//	heOffsets  [V+1]int64
//	heNbrs     [heEdges]uint16
//	nheOffsets [V+1]int64
//	nheNbrs    [nheEdges]uint32
//	h2hWords   uint64
//	h2h        [h2hWords]uint64
//	relabeling [V]uint32
//
// All little-endian.

const (
	lotusMagic   = "LOTS"
	lotusVersion = 1
)

// Write serializes the LotusGraph. The format holds one shard, so a
// structure of more than one block is an error.
func (lg *LotusGraph) Write(w io.Writer) error {
	s, err := lg.TryFlat()
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(lotusMagic); err != nil {
		return err
	}
	hdr := []any{
		uint32(lotusVersion), s.HubCount,
		uint64(s.numVertices), uint64(s.HE.NumEdges()), uint64(s.NHE.NumEdges()),
	}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	words := s.H2H.Words()
	payload := []any{
		s.HE.offsets, s.HE.nbrs,
		s.NHE.offsets, s.NHE.nbrs,
		uint64(len(words)), words,
		lg.Relabeling,
	}
	for _, p := range payload {
		if err := binary.Write(bw, binary.LittleEndian, p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLotusGraph parses a stream written by Write and validates the
// structural invariants before returning.
func ReadLotusGraph(r io.Reader) (*LotusGraph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if string(magic) != lotusMagic {
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	var version, hubCount uint32
	var nv, heE, nheE uint64
	for _, p := range []any{&version, &hubCount, &nv, &heE, &nheE} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("core: reading header: %w", err)
		}
	}
	if version != lotusVersion {
		return nil, fmt.Errorf("core: unsupported version %d", version)
	}
	// Every size in the header is untrusted: validate it arithmetically
	// (overflow-safe — nv < 2^32 keeps nv*(nv-1) inside uint64) before
	// any size-derived allocation, so a corrupt header produces an
	// error rather than an OOM or a panic.
	if nv >= 1<<32 {
		return nil, fmt.Errorf("core: implausible vertex count %d", nv)
	}
	maxEdges := nv * (nv - 1) / 2
	if nv == 0 {
		maxEdges = 0
	}
	if heE > maxEdges || nheE > maxEdges {
		return nil, fmt.Errorf("core: implausible header (V=%d, HE=%d, NHE=%d, max=%d)", nv, heE, nheE, maxEdges)
	}
	if uint64(hubCount) > nv {
		return nil, fmt.Errorf("core: hub count %d exceeds vertex count %d", hubCount, nv)
	}
	// HE stores hub IDs in 16 bits, so no valid writer ever emits more
	// than 2^16 hubs; rejecting larger counts here also bounds the H2H
	// allocation below (a corrupt 2^31 hub count would otherwise
	// request a ~256 PB bit array).
	if hubCount > DefaultHubCount {
		return nil, fmt.Errorf("core: hub count %d exceeds the 16-bit hub ID space (%d)", hubCount, DefaultHubCount)
	}
	s := &LotusShard{
		Range:       VertexRange{Hi: uint32(nv)},
		HubCount:    hubCount,
		numVertices: int(nv),
	}
	// Arrays are read in bounded chunks so a corrupt header cannot
	// force a huge up-front allocation (memory grows only as data
	// actually arrives), and each offsets array is validated against
	// its edge count before the neighbour payload it indexes is read.
	heOffsets, err := readChunkedI64(br, nv+1)
	if err != nil {
		return nil, fmt.Errorf("core: reading HE offsets: %w", err)
	}
	if err := validateOffsets(heOffsets, heE); err != nil {
		return nil, fmt.Errorf("core: HE offsets: %w", err)
	}
	heNbrs, err := readChunkedU16(br, heE)
	if err != nil {
		return nil, fmt.Errorf("core: reading HE neighbours: %w", err)
	}
	nheOffsets, err := readChunkedI64(br, nv+1)
	if err != nil {
		return nil, fmt.Errorf("core: reading NHE offsets: %w", err)
	}
	if err := validateOffsets(nheOffsets, nheE); err != nil {
		return nil, fmt.Errorf("core: NHE offsets: %w", err)
	}
	nheNbrs, err := readChunkedU32(br, nheE)
	if err != nil {
		return nil, fmt.Errorf("core: reading NHE neighbours: %w", err)
	}
	s.HE = &HE16{offsets: heOffsets, nbrs: heNbrs}
	s.NHE = &NHE32{offsets: nheOffsets, nbrs: nheNbrs}
	var nWords uint64
	if err := binary.Read(br, binary.LittleEndian, &nWords); err != nil {
		return nil, fmt.Errorf("core: reading H2H size: %w", err)
	}
	// Validate the word count arithmetically before allocating the bit
	// array (bounded to ~256 MB by the hubCount check above).
	expectBits := uint64(0)
	if hubCount > 0 {
		expectBits = uint64(hubCount) * uint64(hubCount-1) / 2
	}
	if nWords != (expectBits+63)/64 {
		return nil, fmt.Errorf("core: H2H word count %d != expected %d", nWords, (expectBits+63)/64)
	}
	h2h := bitarray.NewTriRows(0, hubCount)
	words := h2h.Words()
	if err := binary.Read(br, binary.LittleEndian, words); err != nil {
		return nil, fmt.Errorf("core: reading H2H: %w", err)
	}
	s.H2H = h2h
	ra, err := readChunkedU32(br, nv)
	if err != nil {
		return nil, fmt.Errorf("core: reading relabeling: %w", err)
	}
	lg := &LotusGraph{
		Plan:   &Plan{P: 1, Ranges: []VertexRange{s.Range}, Relabeling: ra, HubCount: hubCount},
		Shards: []*LotusShard{s},
	}
	if err := lg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid structure: %w", err)
	}
	return lg, nil
}

// validateOffsets checks a CSX index array read from an untrusted
// stream: first offset zero, last offset equal to the edge count, and
// monotone throughout. It runs before the (edgeCount-sized) neighbour
// payload is read, so inconsistent headers fail fast.
func validateOffsets(off []int64, edgeCount uint64) error {
	n := len(off) - 1
	if off[0] != 0 {
		return fmt.Errorf("first offset %d != 0", off[0])
	}
	if off[n] != int64(edgeCount) {
		return fmt.Errorf("last offset %d != edge count %d", off[n], edgeCount)
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("not monotone at %d (%d < %d)", i, off[i], off[i-1])
		}
	}
	return nil
}

const ioChunk = 1 << 20

func readChunkedI64(r io.Reader, n uint64) ([]int64, error) {
	out := make([]int64, 0, minChunk(n))
	for read := uint64(0); read < n; {
		c := minChunk(n - read)
		buf := make([]int64, c)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		read += c
	}
	return out, nil
}

func readChunkedU32(r io.Reader, n uint64) ([]uint32, error) {
	out := make([]uint32, 0, minChunk(n))
	for read := uint64(0); read < n; {
		c := minChunk(n - read)
		buf := make([]uint32, c)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		read += c
	}
	return out, nil
}

func readChunkedU16(r io.Reader, n uint64) ([]uint16, error) {
	out := make([]uint16, 0, minChunk(n))
	for read := uint64(0); read < n; {
		c := minChunk(n - read)
		buf := make([]uint16, c)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		read += c
	}
	return out, nil
}

func minChunk(n uint64) uint64 {
	if n > ioChunk {
		return ioChunk
	}
	return n
}

// SaveFile persists the LotusGraph at path. A structure of more than
// one block is an error, and no file is created.
func (lg *LotusGraph) SaveFile(path string) error {
	if _, err := lg.TryFlat(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lg.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadLotusFile reads a LotusGraph persisted by SaveFile.
func LoadLotusFile(path string) (*LotusGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLotusGraph(f)
}
