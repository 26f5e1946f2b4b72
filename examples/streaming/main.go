// Streaming: the paper's §6.2 extension. A social graph arrives as
// an edge stream; a memory-resident hub structure (square H2H bit
// matrix, per-vertex hub lists, and per-hub non-hub rows that turn
// into vertex bitmaps once they hold ⌈⌈n/64⌉/2⌉ entries, so a hub
// arrival costs the short side's degree) counts hub triangles on the
// fly.
// Since hub triangles are ~93% of all triangles on skewed graphs
// (§3.4), the running hub count tracks the true total closely — this
// example measures exactly how closely.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"lotustc"
)

func main() {
	g := lotustc.RMAT(15, 16, 11)
	edges := g.Edges()
	fmt.Printf("stream: %d edges over %d vertices\n", len(edges), g.NumVertices())

	// Designate hubs from a warm-up prefix: in a real pipeline the
	// hub set would come from history; here the top 1% by degree.
	hubCount := g.NumVertices() / 100
	hubs := lotustc.TopDegreeVertices(g, hubCount)
	sc, err := lotustc.NewStreamingCounter(g.NumVertices(), hubs)
	if err != nil {
		log.Fatal(err)
	}

	// Shuffle to simulate arbitrary arrival order.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	checkpoints := []int{len(edges) / 4, len(edges) / 2, 3 * len(edges) / 4, len(edges)}
	next := 0
	for i, e := range edges {
		sc.AddEdge(e.U, e.V)
		if next < len(checkpoints) && i+1 == checkpoints[next] {
			fmt.Printf("  after %7d edges: %10d hub triangles\n", i+1, sc.HubTriangles())
			next++
		}
	}

	hhh, hhn, hnn, _ := sc.Classes()
	fmt.Printf("final: HHH=%d HHN=%d HNN=%d (hub total %d)\n", hhh, hhn, hnn, sc.HubTriangles())

	// Compare with the exact total from a batch LOTUS run using the
	// same hub count.
	res, err := lotustc.Count(g, lotustc.Options{HubCount: hubCount})
	if err != nil {
		log.Fatal(err)
	}
	cover := 100 * float64(sc.HubTriangles()) / float64(res.Triangles)
	fmt.Printf("batch total: %d triangles -> streaming hub count covers %.1f%%\n",
		res.Triangles, cover)
	fmt.Println("(paper §3.4: triangles containing a hub average 93.4% of all triangles)")
}
