package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"

	"lotustc/internal/gen"
	"lotustc/internal/graph"
)

// Generation limits. A resident service builds graphs straight from
// request bodies, so every knob that sizes an allocation is bounded
// here: an unvalidated spec is how a single request turns into an
// out-of-memory kill of a process serving everyone else. Every
// generator's edge samples are held to maxGenEdges; the per-field
// ranges are checked first, so the sample counts fit in an int64.
const (
	maxRMATScale   = 27      // 2^27 vertices ≈ 1 GiB of offsets alone
	maxEdgeFactor  = 256     //
	maxGenVertices = 1 << 27 //
	maxGenEdges    = 1 << 30 //
	maxCompleteN   = 1 << 12 // K_n stores n(n-1) directed edges
	maxInlineEdges = 1 << 22 // inline JSON edge lists
)

// GraphSpec names an input graph. Exactly one Type is selected; the
// other fields parameterize it. The canonical Key of a spec is the
// graph half of every cache key, so two requests that mean the same
// graph always share one cached instance.
type GraphSpec struct {
	// Type selects the source: "rmat", "chunglu", "erdos-renyi",
	// "barabasi-albert", "trigrid", "complete", "hub-spokes", "file"
	// (a binary graph saved by lotus-gen / SaveGraph; requires
	// -allow-files) or "edges" (an inline edge list).
	Type string `json:"type"`

	// R-MAT parameters (Graph500 style).
	Scale      uint  `json:"scale,omitempty"`
	EdgeFactor int   `json:"edge_factor,omitempty"`
	Seed       int64 `json:"seed,omitempty"`

	// Chung-Lu / Erdős–Rényi / Barabási–Albert / hub-spokes sizing.
	N     int     `json:"n,omitempty"`
	M     int     `json:"m,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`

	// Hub-spokes shape.
	Hubs   int `json:"hubs,omitempty"`
	Leaves int `json:"leaves,omitempty"`
	Attach int `json:"attach,omitempty"`

	// Triangulated grid (road-network analog) dimensions.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`

	// File source.
	Path string `json:"path,omitempty"`

	// Inline edge list; Vertices pins |V| (0 infers from max ID).
	Edges    [][2]uint32 `json:"edges,omitempty"`
	Vertices int         `json:"vertices,omitempty"`
}

// Validate checks the spec against the generation limits before any
// allocation happens. allowFiles gates the "file" type: a public
// endpoint must not be a primitive for probing the server's
// filesystem.
func (s *GraphSpec) Validate(allowFiles bool) error {
	switch s.Type {
	case "rmat":
		if s.Scale < 1 || s.Scale > maxRMATScale {
			return fmt.Errorf("rmat scale %d out of range [1, %d]", s.Scale, maxRMATScale)
		}
		if s.EdgeFactor < 1 || s.EdgeFactor > maxEdgeFactor {
			return fmt.Errorf("rmat edge_factor %d out of range [1, %d]", s.EdgeFactor, maxEdgeFactor)
		}
		if s.EdgeFactor > maxGenEdges>>s.Scale {
			return fmt.Errorf("rmat edge_factor·2^scale = %d edge samples exceeds %d", int64(s.EdgeFactor)<<s.Scale, maxGenEdges)
		}
	case "chunglu":
		if s.N < 1 || s.N > maxGenVertices {
			return fmt.Errorf("chunglu n %d out of range [1, %d]", s.N, maxGenVertices)
		}
		if s.M < 0 || s.M > maxGenEdges {
			return fmt.Errorf("chunglu m %d out of range [0, %d]", s.M, maxGenEdges)
		}
		if s.Gamma <= 1 || s.Gamma >= 4 {
			return fmt.Errorf("chunglu gamma %g out of range (1, 4)", s.Gamma)
		}
	case "erdos-renyi":
		if s.N < 1 || s.N > maxGenVertices {
			return fmt.Errorf("erdos-renyi n %d out of range [1, %d]", s.N, maxGenVertices)
		}
		if s.M < 0 || s.M > maxGenEdges {
			return fmt.Errorf("erdos-renyi m %d out of range [0, %d]", s.M, maxGenEdges)
		}
	case "barabasi-albert":
		if s.N < 1 || s.N > maxGenVertices {
			return fmt.Errorf("barabasi-albert n %d out of range [1, %d]", s.N, maxGenVertices)
		}
		if s.M < 1 || s.M > 1024 {
			return fmt.Errorf("barabasi-albert m %d out of range [1, 1024]", s.M)
		}
		// The seed clique on m+1 vertices, then m edges per later vertex.
		m, rest := int64(s.M), int64(max(s.N-s.M-1, 0))
		if e := m*(m+1)/2 + rest*m; e > maxGenEdges {
			return fmt.Errorf("barabasi-albert n %d, m %d samples %d edges, exceeds %d", s.N, s.M, e, maxGenEdges)
		}
	case "trigrid":
		if s.Rows < 1 || s.Cols < 1 {
			return fmt.Errorf("trigrid needs rows and cols >= 1")
		}
		if s.Rows > maxGenVertices || s.Cols > maxGenVertices || s.Rows*s.Cols > maxGenVertices {
			return fmt.Errorf("trigrid %dx%d exceeds %d vertices", s.Rows, s.Cols, maxGenVertices)
		}
	case "complete":
		if s.N < 1 || s.N > maxCompleteN {
			return fmt.Errorf("complete n %d out of range [1, %d]", s.N, maxCompleteN)
		}
	case "hub-spokes":
		if s.Hubs < 1 || s.Hubs > 1<<12 {
			return fmt.Errorf("hub-spokes hubs %d out of range [1, %d]", s.Hubs, 1<<12)
		}
		if s.Leaves < 0 || s.Leaves > maxGenVertices {
			return fmt.Errorf("hub-spokes leaves %d out of range [0, %d]", s.Leaves, maxGenVertices)
		}
		if s.Attach < 1 || s.Attach > s.Hubs {
			return fmt.Errorf("hub-spokes attach %d out of range [1, hubs]", s.Attach)
		}
		// The hub clique, then attach edges per leaf.
		h := int64(s.Hubs)
		if e := h*(h-1)/2 + int64(s.Leaves)*int64(s.Attach); e > maxGenEdges {
			return fmt.Errorf("hub-spokes samples %d edges, exceeds %d", e, maxGenEdges)
		}
	case "file":
		if !allowFiles {
			return fmt.Errorf("file graph specs are disabled (start the server with -allow-files)")
		}
		if s.Path == "" {
			return fmt.Errorf("file spec needs a path")
		}
	case "edges":
		if len(s.Edges) == 0 {
			return fmt.Errorf("edges spec needs at least one edge")
		}
		if len(s.Edges) > maxInlineEdges {
			return fmt.Errorf("edges spec has %d edges, limit %d", len(s.Edges), maxInlineEdges)
		}
		if s.Vertices < 0 || s.Vertices > maxGenVertices {
			return fmt.Errorf("edges vertices %d out of range [0, %d]", s.Vertices, maxGenVertices)
		}
	case "":
		return fmt.Errorf("graph spec needs a type")
	default:
		return fmt.Errorf("unknown graph type %q", s.Type)
	}
	return nil
}

// Key returns the canonical cache key of the spec. Inline edge lists
// are keyed by content hash so identical lists share a cache entry
// without the key itself holding the list.
func (s *GraphSpec) Key() string {
	return string(s.appendKey(nil))
}

// appendKey appends the canonical cache key to dst, byte-identical to
// Key. The warm /v1/count path rebuilds its result key per request
// into a pooled buffer, so this is strconv.Append* instead of
// fmt.Sprintf: strconv's shortest-float 'g' rendering matches fmt's
// %g exactly for float64.
func (s *GraphSpec) appendKey(dst []byte) []byte {
	switch s.Type {
	case "rmat":
		dst = append(dst, "rmat:s="...)
		dst = strconv.AppendUint(dst, uint64(s.Scale), 10)
		dst = append(dst, ",ef="...)
		dst = strconv.AppendInt(dst, int64(s.EdgeFactor), 10)
		dst = append(dst, ",seed="...)
		return strconv.AppendInt(dst, s.Seed, 10)
	case "chunglu":
		dst = append(dst, "chunglu:n="...)
		dst = strconv.AppendInt(dst, int64(s.N), 10)
		dst = append(dst, ",m="...)
		dst = strconv.AppendInt(dst, int64(s.M), 10)
		dst = append(dst, ",g="...)
		dst = strconv.AppendFloat(dst, s.Gamma, 'g', -1, 64)
		dst = append(dst, ",seed="...)
		return strconv.AppendInt(dst, s.Seed, 10)
	case "erdos-renyi":
		dst = append(dst, "er:n="...)
		dst = strconv.AppendInt(dst, int64(s.N), 10)
		dst = append(dst, ",m="...)
		dst = strconv.AppendInt(dst, int64(s.M), 10)
		dst = append(dst, ",seed="...)
		return strconv.AppendInt(dst, s.Seed, 10)
	case "barabasi-albert":
		dst = append(dst, "ba:n="...)
		dst = strconv.AppendInt(dst, int64(s.N), 10)
		dst = append(dst, ",m="...)
		dst = strconv.AppendInt(dst, int64(s.M), 10)
		dst = append(dst, ",seed="...)
		return strconv.AppendInt(dst, s.Seed, 10)
	case "trigrid":
		dst = append(dst, "trigrid:r="...)
		dst = strconv.AppendInt(dst, int64(s.Rows), 10)
		dst = append(dst, ",c="...)
		return strconv.AppendInt(dst, int64(s.Cols), 10)
	case "complete":
		dst = append(dst, "complete:n="...)
		return strconv.AppendInt(dst, int64(s.N), 10)
	case "hub-spokes":
		dst = append(dst, "hubspokes:h="...)
		dst = strconv.AppendInt(dst, int64(s.Hubs), 10)
		dst = append(dst, ",l="...)
		dst = strconv.AppendInt(dst, int64(s.Leaves), 10)
		dst = append(dst, ",a="...)
		dst = strconv.AppendInt(dst, int64(s.Attach), 10)
		dst = append(dst, ",seed="...)
		return strconv.AppendInt(dst, s.Seed, 10)
	case "file":
		dst = append(dst, "file:"...)
		return append(dst, s.Path...)
	case "edges":
		h := sha256.New()
		var buf [8]byte
		for _, e := range s.Edges {
			binary.LittleEndian.PutUint32(buf[:4], e[0])
			binary.LittleEndian.PutUint32(buf[4:], e[1])
			h.Write(buf[:])
		}
		var sum [sha256.Size]byte
		dst = append(dst, "edges:v="...)
		dst = strconv.AppendInt(dst, int64(s.Vertices), 10)
		dst = append(dst, ",sha="...)
		const hexdigits = "0123456789abcdef"
		for _, b := range h.Sum(sum[:0])[:16] {
			dst = append(dst, hexdigits[b>>4], hexdigits[b&0xf])
		}
		return dst
	default:
		dst = append(dst, "invalid:"...)
		return append(dst, s.Type...)
	}
}

// Build materializes the graph. Callers must have validated the spec;
// Build still never panics on a bad one — generator and loader errors
// come back as errors.
func (s *GraphSpec) Build() (*graph.Graph, error) {
	switch s.Type {
	case "rmat":
		return gen.RMAT(gen.DefaultRMAT(s.Scale, s.EdgeFactor, s.Seed)), nil
	case "chunglu":
		return gen.ChungLu(gen.ChungLuParams{N: s.N, M: s.M, Gamma: s.Gamma, Seed: s.Seed}), nil
	case "erdos-renyi":
		return gen.ErdosRenyi(s.N, s.M, s.Seed), nil
	case "barabasi-albert":
		return gen.BarabasiAlbert(s.N, s.M, s.Seed), nil
	case "trigrid":
		return gen.TriGrid(s.Rows, s.Cols), nil
	case "complete":
		return gen.Complete(s.N), nil
	case "hub-spokes":
		return gen.HubAndSpokes(s.Hubs, s.Leaves, s.Attach, s.Seed), nil
	case "file":
		return graph.LoadFile(s.Path)
	case "edges":
		edges := make([]graph.Edge, len(s.Edges))
		for i, e := range s.Edges {
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
		return graph.FromEdges(edges, graph.BuildOptions{NumVertices: s.Vertices}), nil
	default:
		return nil, fmt.Errorf("unknown graph type %q", s.Type)
	}
}

// graphBytes estimates the resident footprint of a CSX graph for the
// cache budget: 8-byte offsets plus 4-byte neighbour IDs.
func graphBytes(g *graph.Graph) int64 {
	return 8*(int64(g.NumVertices())+1) + 4*g.NumDirectedEdges()
}
