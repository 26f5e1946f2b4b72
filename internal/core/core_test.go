package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"lotustc/internal/baseline"
	"lotustc/internal/bitarray"
	"lotustc/internal/gen"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/reorder"
	"lotustc/internal/sched"
)

var pool = sched.NewPool(4)

func lotusCount(g *graph.Graph, hubCount int) *Result {
	lg := Preprocess(g, Options{HubCount: hubCount, Pool: pool})
	return lg.Count(pool)
}

func TestPaperExampleGraph(t *testing.T) {
	// Figure 2's example graph: hubs 0 and 1.
	g := graph.FromEdges([]graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 6},
		{U: 1, V: 3}, {U: 1, V: 4}, {U: 1, V: 5}, {U: 1, V: 6}, {U: 1, V: 7},
		{U: 2, V: 3}, {U: 4, V: 6}, {U: 6, V: 8},
	}, graph.BuildOptions{})
	want := baseline.BruteForce(g)
	res := lotusCount(g, 2)
	if res.Total != want {
		t.Fatalf("Lotus = %d, want %d", res.Total, want)
	}
	// Triangles: (0,1,3),(0,1,4),(0,1,6),(0,4,6),(1,4,6)? 1-4,4-6,1-6: yes.
	// (0,2,3): 0-2,0-3,2-3: yes. So 6 total; all contain hub 0 or 1.
	if want != 6 {
		t.Fatalf("oracle says %d triangles, expected 6 — test graph wrong", want)
	}
	if res.NNN != 0 {
		t.Fatalf("NNN = %d, want 0 (every triangle has a hub)", res.NNN)
	}
	if res.HubTriangles() != 6 {
		t.Fatalf("hub triangles = %d, want 6", res.HubTriangles())
	}
}

func TestKnownCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		hubs int
		want uint64
	}{
		{"empty", graph.FromEdges(nil, graph.BuildOptions{}), 0, 0},
		{"one-vertex", graph.FromEdges(nil, graph.BuildOptions{NumVertices: 1}), 0, 0},
		{"one-edge", graph.FromEdges([]graph.Edge{{U: 0, V: 1}}, graph.BuildOptions{}), 1, 0},
		{"triangle", gen.Complete(3), 1, 1},
		{"K4-hubs1", gen.Complete(4), 1, 4},
		{"K8-hubs4", gen.Complete(8), 4, 56},
		{"K8-allhubs", gen.Complete(8), 8, 56},
		{"star", gen.Star(64), 4, 0},
		{"ring", gen.Ring(64), 4, 0},
		{"bipartite", gen.CompleteBipartite(8, 8), 4, 0},
		{"planted", gen.PlantedTriangles(9, 3), 4, 9},
		{"hubspokes", gen.HubAndSpokes(6, 40, 3, 2), 6, 20 + 40*3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := lotusCount(c.g, c.hubs)
			if res.Total != c.want {
				t.Errorf("Total = %d, want %d", res.Total, c.want)
			}
			if s := res.HHH + res.HHN + res.HNN + res.NNN; s != res.Total {
				t.Errorf("class sum %d != total %d", s, res.Total)
			}
		})
	}
}

func TestClassBreakdownHubSpokes(t *testing.T) {
	// 6-hub clique + 40 leaves each on 3 hubs, hubs = the 6 clique
	// vertices: C(6,3)=20 HHH, 40*C(3,2)=120 HHN, 0 HNN, 0 NNN.
	g := gen.HubAndSpokes(6, 40, 3, 2)
	res := lotusCount(g, 6)
	if res.HHH != 20 || res.HHN != 120 || res.HNN != 0 || res.NNN != 0 {
		t.Fatalf("classes = (%d,%d,%d,%d), want (20,120,0,0)",
			res.HHH, res.HHN, res.HNN, res.NNN)
	}
}

func TestClassBreakdownK4(t *testing.T) {
	// K4 with 2 hubs: label hubs a,b, non-hubs x,y.
	// Triangles: abx, aby (HHN), axy, bxy (HNN) and ab? abx/aby...
	// K4 has 4 triangles: {a,b,x},{a,b,y},{a,x,y},{b,x,y}.
	res := lotusCount(gen.Complete(4), 2)
	if res.HHH != 0 || res.HHN != 2 || res.HNN != 2 || res.NNN != 0 {
		t.Fatalf("classes = (%d,%d,%d,%d), want (0,2,2,0)",
			res.HHH, res.HHN, res.HNN, res.NNN)
	}
}

func TestAgainstForwardProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(80)
		m := rng.Intn(5 * n)
		var edges []graph.Edge
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
		}
		g := graph.FromEdges(edges, graph.BuildOptions{NumVertices: n})
		want := baseline.BruteForce(g)
		hubs := 1 + rng.Intn(n)
		res := lotusCount(g, hubs)
		if res.Total != want {
			t.Logf("seed %d hubs %d: lotus %d want %d", seed, hubs, res.Total, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHubCountSweep(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	want := baseline.Forward(g, pool, baseline.KernelMerge)
	for _, hubs := range []int{1, 2, 16, 100, 512, 1024} {
		res := lotusCount(g, hubs)
		if res.Total != want {
			t.Errorf("hubs=%d: %d, want %d", hubs, res.Total, want)
		}
	}
	// Hub count exceeding |V| must clamp.
	res := lotusCount(g, 1<<20)
	if res.Total != want {
		t.Errorf("clamped hubs: %d, want %d", res.Total, want)
	}
}

func TestEffectiveHubCount(t *testing.T) {
	cases := []struct {
		opt  Options
		n    int
		want int
	}{
		{Options{}, 1 << 23, DefaultHubCount}, // capped at 64K
		{Options{}, 6400, 100},                // |V|/64
		{Options{HubCount: 7}, 400, 7},
		{Options{HubCount: 1000}, 400, 400}, // clamped to |V|
		{Options{}, 2, 1},                   // at least one hub
	}
	for i, c := range cases {
		if got := c.opt.EffectiveHubCount(c.n); got != c.want {
			t.Errorf("case %d: EffectiveHubCount = %d, want %d", i, got, c.want)
		}
	}
}

func TestValidateAfterPreprocess(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":    gen.RMAT(gen.DefaultRMAT(10, 8, 1)),
		"er":      gen.ErdosRenyi(1000, 4000, 2),
		"chunglu": gen.ChungLu(gen.ChungLuParams{N: 1000, M: 6000, Gamma: 2.2, Seed: 3}),
		"k16":     gen.Complete(16),
	}
	for name, g := range graphs {
		lg := Preprocess(g, Options{HubCount: 64, Pool: pool})
		if err := lg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// HE+NHE must partition the oriented edges.
		if got := lg.Shards[0].HE.NumEdges() + lg.Shards[0].NHE.NumEdges(); got != g.NumEdges() {
			t.Errorf("%s: HE+NHE = %d, want %d", name, got, g.NumEdges())
		}
	}
}

// TestPartitionersAgree: phase 1 split into squared-edge pair tiles
// counts what the untiled (huge threshold) partition counts.
func TestPartitionersAgree(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 7))
	lg := Preprocess(g, Options{HubCount: 128, Pool: pool})
	want := lg.CountWithOptions(pool, CountOptions{TileThreshold: 8}).Total
	got := lg.CountWithOptions(pool, CountOptions{TileThreshold: 1 << 30}).Total
	if got != want {
		t.Fatalf("untiled %d != tiled %d", got, want)
	}
}

func TestTilesCoverAllPairs(t *testing.T) {
	// Exhaustive check on a hub-heavy graph with a tiny threshold and
	// several tile counts: totals must match the untiled count.
	g := gen.HubAndSpokes(64, 200, 8, 5)
	lg := Preprocess(g, Options{HubCount: 64, Pool: pool})
	want := lg.CountWithOptions(pool, CountOptions{TileThreshold: 1 << 30}).Total
	for _, tiles := range []int{1, 2, 3, 5, 16, 64} {
		res := lg.CountWithOptions(pool, CountOptions{TileThreshold: 2, TilesPerVertex: tiles})
		if res.Total != want {
			t.Errorf("tiles=%d: %d, want %d", tiles, res.Total, want)
		}
	}
}

// tilePairWork computes the per-tile pair work (sum of h1 indices)
// for a degree-d vertex split into p tiles, at the squared boundaries
// phase1Tiles generates or at equal-neighbour-count boundaries.
func tilePairWork(d, p int, squared bool) []uint64 {
	work := make([]uint64, 0, p)
	var prev uint32
	for k := 1; k <= p; k++ {
		var hi uint32
		if squared {
			hi = uint32(float64(d) * math.Sqrt(float64(k)/float64(p)))
		} else {
			hi = uint32(d * k / p)
		}
		if k == p {
			hi = uint32(d)
		}
		var w uint64
		for i := prev; i < hi; i++ {
			w += uint64(i)
		}
		work = append(work, w)
		prev = hi
	}
	return work
}

func TestSquaredTilingBalancesWork(t *testing.T) {
	// For a degree-1000 vertex split into 4 tiles, squared boundaries
	// sit at 1000*sqrt(k/4) = 0,500,707,866,1000; each tile's pair
	// work must be near-equal, while equal-neighbour-count tiles are
	// skewed ~7x (last tile has 750^2-ish more pairs than the first).
	sq := tilePairWork(1000, 4, true)
	eb := tilePairWork(1000, 4, false)
	maxMin := func(w []uint64) (uint64, uint64) {
		mx, mn := w[0], w[0]
		for _, x := range w {
			if x > mx {
				mx = x
			}
			if x < mn {
				mn = x
			}
		}
		return mx, mn
	}
	sqMax, sqMin := maxMin(sq)
	ebMax, ebMin := maxMin(eb)
	if float64(sqMax)/float64(sqMin) > 1.2 {
		t.Errorf("squared tiling imbalance %v too high: %v", float64(sqMax)/float64(sqMin), sq)
	}
	if float64(ebMax)/float64(ebMin) < 3 {
		t.Errorf("edge-balanced should be badly imbalanced, got %v: %v", float64(ebMax)/float64(ebMin), eb)
	}
}

// TestPhase1TileWorkClampsWorkers asks for the tile work at 0 and -1
// workers, which used to divide by zero: both must give the 1-worker
// tiles, whose work sums to every vertex's hub-pair count.
func TestPhase1TileWorkClampsWorkers(t *testing.T) {
	g := gen.HubAndSpokes(64, 200, 8, 5)
	lg := Preprocess(g, Options{HubCount: 64, Pool: pool})
	var pairs uint64
	for v := 0; v < g.NumVertices(); v++ {
		d := uint64(lg.Shards[0].HE.Degree(uint32(v)))
		pairs += d * (d - 1) / 2
	}
	opt := CountOptions{TileThreshold: 8}
	want := lg.Phase1TileWork(opt, 1)
	for _, workers := range []int{0, -1} {
		got := lg.Phase1TileWork(opt, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: tile work %v, want the 1-worker tiles %v", workers, got, want)
		}
		var sum uint64
		for _, w := range got {
			sum += w
		}
		if sum != pairs {
			t.Fatalf("workers=%d: tile work sums to %d, want %d hub pairs", workers, sum, pairs)
		}
	}
}

func TestPaperTilingExample(t *testing.T) {
	// §4.6 worked example: 100 neighbours, 5 partitions -> borders
	// 0, 45, 63, 77, 89, 100 (100*sqrt(k/5) truncated).
	borders := []uint32{0}
	prev := uint32(0)
	for k := 1; k <= 5; k++ {
		hi := uint32(100 * math.Sqrt(float64(k)/5))
		if k == 5 {
			hi = 100
		}
		borders = append(borders, hi)
		if hi < prev {
			t.Fatal("borders not monotone")
		}
		prev = hi
	}
	want := []uint32{0, 44, 63, 77, 89, 100}
	for i := range want {
		// float truncation may differ by 1 from the paper's rounding
		d := int64(borders[i]) - int64(want[i])
		if d < -1 || d > 1 {
			t.Fatalf("border %d = %d, want %d±1", i, borders[i], want[i])
		}
	}
}

func TestTopologyBytesAccounting(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 2))
	lg := Preprocess(g, Options{HubCount: 256, Pool: pool})
	want := 2*8*int64(g.NumVertices()+1) + lg.Shards[0].H2H.SizeBytes() +
		2*lg.Shards[0].HE.NumEdges() + 4*lg.Shards[0].NHE.NumEdges()
	if got := lg.TopologyBytes(); got != want {
		t.Fatalf("TopologyBytes = %d, want %d", got, want)
	}
}

// relabelSplitOracle is a serial Algorithm 2 reference: materialize
// the relabeled graph, then split each vertex's lower neighbours at
// the hub bound into its HE prefix and NHE suffix, setting an H2H bit
// for every hub-to-hub edge.
func relabelSplitOracle(g *graph.Graph, opt Options) *LotusGraph {
	n := g.NumVertices()
	hubCount := uint32(opt.EffectiveHubCount(n))
	ra := reorder.Lotus(g, reorder.LotusOptions{HubCount: int(hubCount), FrontFraction: opt.FrontFraction})
	rg := g.Relabel(ra)
	he := &HE16{offsets: make([]int64, 1, n+1), nbrs: []uint16{}}
	nhe := &NHE32{offsets: make([]int64, 1, n+1), nbrs: []uint32{}}
	h2h := bitarray.NewTriRows(0, hubCount)
	for v := uint32(0); v < uint32(n); v++ {
		for _, u := range rg.Neighbors(v) {
			switch {
			case u >= v: // stored in u's row (N^< only)
			case u < hubCount:
				he.nbrs = append(he.nbrs, uint16(u))
				if v < hubCount {
					h2h.Set(v, u)
				}
			default:
				nhe.nbrs = append(nhe.nbrs, u)
			}
		}
		he.offsets = append(he.offsets, int64(len(he.nbrs)))
		nhe.offsets = append(nhe.offsets, int64(len(nhe.nbrs)))
	}
	rows := &LotusShard{Range: VertexRange{Hi: uint32(n)}, HubCount: hubCount, H2H: h2h, HE: he, NHE: nhe, numVertices: n}
	return &LotusGraph{
		Plan:   &Plan{P: 1, Ranges: []VertexRange{rows.Range}, Relabeling: ra, HubCount: hubCount},
		Shards: []*LotusShard{rows},
	}
}

// TestPreprocessBitIdentical holds TryPreprocess (the on-the-fly walk
// every grid shard runs) to relabelSplitOracle: identical HE and
// NHE rows and the same H2H words, across shapes and hub counts. At 63
// to 129 hubs the R-MAT, k20, k130 and hub-spokes rows reach the dense
// length 2·⌈H/64⌉, so the walk sorts them through the hub bitmap over
// one to three words; each of those hub counts must hit that path.
func TestPreprocessBitIdentical(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat":      gen.RMAT(gen.DefaultRMAT(10, 8, 1)),
		"er":        gen.ErdosRenyi(800, 3000, 2),
		"chunglu":   gen.ChungLu(gen.ChungLuParams{N: 700, M: 5000, Gamma: 2.2, Seed: 3}),
		"k20":       gen.Complete(20),
		"k130":      gen.Complete(130),
		"star":      gen.Star(50),
		"hubspokes": gen.HubAndSpokes(8, 200, 3, 4),
		"empty":     graph.FromEdges(nil, graph.BuildOptions{NumVertices: 10}),
	}
	denseHubs := []int{63, 64, 65, 128, 129}
	dense := map[int]bool{}
	for name, g := range graphs {
		for _, hubs := range append([]int{1, 4, 37}, denseHubs...) {
			a := relabelSplitOracle(g, Options{HubCount: hubs})
			b := Preprocess(g, Options{HubCount: hubs, Pool: pool})
			if a.HubCount != b.HubCount {
				t.Fatalf("%s hubs=%d: hub counts differ", name, hubs)
			}
			if !reflect.DeepEqual(a.Shards[0].HE.Offsets(), b.Shards[0].HE.Offsets()) ||
				!reflect.DeepEqual(a.Shards[0].HE.Raw(), b.Shards[0].HE.Raw()) {
				t.Fatalf("%s hubs=%d: HE differs", name, hubs)
			}
			if !reflect.DeepEqual(a.Shards[0].NHE.Offsets(), b.Shards[0].NHE.Offsets()) ||
				!reflect.DeepEqual(a.Shards[0].NHE.Raw(), b.Shards[0].NHE.Raw()) {
				t.Fatalf("%s hubs=%d: NHE differs", name, hubs)
			}
			if !reflect.DeepEqual(a.Shards[0].H2H.Words(), b.Shards[0].H2H.Words()) {
				t.Fatalf("%s hubs=%d: H2H differs", name, hubs)
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("%s hubs=%d: validate: %v", name, hubs, err)
			}
			ra := a.Count(pool)
			rb := b.Count(pool)
			if ra.Total != rb.Total {
				t.Fatalf("%s hubs=%d: counts differ %d vs %d", name, hubs, ra.Total, rb.Total)
			}
			for v := 0; v < g.NumVertices(); v++ {
				if b.Shards[0].HE.Degree(uint32(v)) >= denseRowMin(b.HubCount) {
					dense[int(b.HubCount)] = true
					break
				}
			}
		}
	}
	for _, hubs := range denseHubs {
		if !dense[hubs] {
			t.Errorf("hubs=%d: no graph has an HE row of %d or more hubs", hubs, denseRowMin(uint32(hubs)))
		}
	}
}

// TestPreprocessPhaseSplit checks that the relabel and the two walk
// passes are each timed, and that together they fit in preprocess.ns.
func TestPreprocessPhaseSplit(t *testing.T) {
	m := obs.New()
	Preprocess(gen.RMAT(gen.DefaultRMAT(12, 16, 3)), Options{HubCount: 128, Pool: pool, Metrics: m})
	var parts int64
	for _, name := range []string{obs.PreprocessRelabelNS, obs.PreprocessWalkCountNS, obs.PreprocessWalkFillNS} {
		ns := m.Get(name)
		if ns <= 0 {
			t.Errorf("%s = %d, want > 0", name, ns)
		}
		parts += ns
	}
	if total := m.Get("preprocess.ns"); parts > total {
		t.Errorf("relabel + walk.count + walk.fill = %d ns, more than preprocess.ns = %d", parts, total)
	}
}

func TestPreprocessRejectsOriented(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on oriented input")
		}
	}()
	Preprocess(gen.Complete(4).Orient(), Options{HubCount: 2})
}

func TestResultTimesPopulated(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 4))
	lg := Preprocess(g, Options{HubCount: 64, Pool: pool})
	if lg.PreprocessTime <= 0 {
		t.Fatal("PreprocessTime not measured")
	}
	res := lg.Count(pool)
	if res.Phase1Time <= 0 || res.HNNTime <= 0 || res.NNNTime <= 0 {
		t.Fatalf("phase times not measured: %v %v %v", res.Phase1Time, res.HNNTime, res.NNNTime)
	}
}
