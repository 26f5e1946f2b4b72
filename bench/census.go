package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"lotustc/internal/approx"
	"lotustc/internal/compress"
	"lotustc/internal/core"
	"lotustc/internal/coveredge"
	"lotustc/internal/engine"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
	"lotustc/internal/reorder"
	"lotustc/internal/sched"
	"lotustc/internal/serve"
)

// censusInput is what the per-layer census replays: the graphs whose
// counting layers it times, and the graph it streams and serves.
type censusInput struct {
	graphs []graphInput
	stream graphInput
}

// census drives every layer's public functions directly over the
// workload's own inputs and returns every per-layer metric. A
// workload's traced loop then overwrites the metrics it measured
// itself under load.
func (b *bench) census(in censusInput, prep prepStats) (map[string]float64, map[string]int, error) {
	v := map[string]float64{"gen.graph_ms": medianMS(prep.gen)}
	samples := map[string]int{}
	b.censusKernels(in.graphs, v)
	b.censusCompress(in, v)
	b.censusStreaming(in.stream, v)
	if err := b.censusServe(in.stream, v, samples); err != nil {
		return nil, nil, err
	}
	return v, samples, nil
}

// fresh returns a new header over g's arrays. The engine memoizes tune
// decisions by graph pointer, and a memoized decision would hide the
// probe every cold count pays.
func fresh(g *graph.Graph) *graph.Graph {
	return graph.New(g.Offsets(), g.RawNeighbors(), g.Oriented)
}

// censusKernels times the counting layers censusReps times over the
// graphs and keeps the median of each rep's sums. LOTUS metrics cover
// the graphs the tuner routes to LOTUS; cover-edge runs on every graph.
func (b *bench) censusKernels(graphs []graphInput, v map[string]float64) {
	var probe, relabel, pre, count, count1, phase1, hnn, nnn, bfs, cover, run, layered []float64
	var idle1, idleH, idleN []float64
	var structBytes float64
	one := sched.NewPool(1)
	for r := 0; r < b.cfg.size.censusReps; r++ {
		var s struct{ probe, relabel, pre, count, count1, phase1, hnn, nnn, bfs, cover, run, layered time.Duration }
		var i1, iH, iN, lotusGraphs float64
		for _, in := range graphs {
			// Each timed call starts with no garbage left by the one
			// before, so the decomposed count and engine.Run compare.
			runtime.GC()
			g := fresh(in.g)
			lt := b.countTraced(g, in, nil, 0)
			s.probe += lt.probe
			s.layered += lt.total()
			if lt.algorithm == "lotus" && lt.res != nil {
				t0 := time.Now()
				reorder.Lotus(g, reorder.LotusOptions{HubCount: core.Options{}.EffectiveHubCount(g.NumVertices())})
				s.relabel += time.Since(t0)
				s.pre += lt.preproc
				s.count += lt.count
				s.phase1 += lt.res.Phase1Time
				s.hnn += lt.res.HNNTime
				s.nnn += lt.res.NNNTime
				i1 += lt.res.Phase1Load.IdleFraction()
				iH += lt.res.HNNLoad.IdleFraction()
				iN += lt.res.NNNLoad.IdleFraction()
				lotusGraphs++
				if r == 0 {
					structBytes += float64(lt.lg.TopologyBytes())
				}
				t0 = time.Now()
				res := lt.lg.CountWithOptions(one, lt.opt)
				s.count1 += time.Since(t0)
				b.tally.check(res.Total == in.ref, "%s: 1-worker count = %d, reference %d", in.name, res.Total, in.ref)
			}
			cr := coveredge.Count(fresh(in.g), sched.NewPool(b.nproc), nil)
			s.bfs += cr.BFSTime
			s.cover += cr.CountTime
			b.tally.check(cr.Total == in.ref, "%s: coveredge.Count = %d, reference %d", in.name, cr.Total, in.ref)
			runtime.GC()
			t0 := time.Now()
			b.countEngine(fresh(in.g), in)
			s.run += time.Since(t0)
		}
		for _, x := range []struct {
			dst *[]float64
			d   time.Duration
		}{{&probe, s.probe}, {&relabel, s.relabel}, {&pre, s.pre}, {&count, s.count}, {&count1, s.count1},
			{&phase1, s.phase1}, {&hnn, s.hnn}, {&nnn, s.nnn}, {&bfs, s.bfs}, {&cover, s.cover},
			{&run, s.run}, {&layered, s.layered}} {
			*x.dst = append(*x.dst, ms(x.d))
		}
		idle1 = append(idle1, ratio(i1, lotusGraphs))
		idleH = append(idleH, ratio(iH, lotusGraphs))
		idleN = append(idleN, ratio(iN, lotusGraphs))
	}
	speedup := make([]float64, len(count))
	for i := range count {
		speedup[i] = ratio(count1[i], count[i])
	}
	v["sched.speedup"] = median(speedup)
	v["tune.probe_ms"] = median(probe)
	v["reorder.relabel_ms"] = median(relabel)
	v["core.preprocess_ms"] = median(pre)
	v["core.count_ms"] = median(count)
	v["core.phase1_ms"] = median(phase1)
	v["core.hnn_ms"] = median(hnn)
	v["core.nnn_ms"] = median(nnn)
	v["core.structure_bytes"] = structBytes
	v["sched.phase1_idle_frac"] = median(idle1)
	v["sched.hnn_idle_frac"] = median(idleH)
	v["sched.nnn_idle_frac"] = median(idleN)
	v["coveredge.bfs_ms"] = median(bfs)
	v["coveredge.count_ms"] = median(cover)
	runMS, layeredMS := median(run), median(layered)
	v["engine.run_ms"] = runMS
	v["engine.unattributed_ms"] = runMS - layeredMS
	v["trace.span_coverage"] = ratio(layeredMS, runMS)

	// One instrumented run per graph for the kernels' operation counts;
	// they repeat exactly, so one run is enough.
	var merges, gallops, wordOps float64
	for _, in := range graphs {
		rep, err := engine.Run(context.Background(), fresh(in.g), engine.Spec{Algorithm: "auto", Workers: b.nproc, CollectMetrics: true})
		if !b.tally.check(err == nil && rep.Triangles == in.ref, "%s: instrumented engine.Run: %v", in.name, err) {
			continue
		}
		m := rep.Metrics
		merges += float64(m[obs.HNNDispatchMerge] + m[obs.NNNDispatchMerge])
		gallops += float64(m[obs.HNNDispatchGallop] + m[obs.NNNDispatchGallop])
		wordOps += float64(m[obs.Phase1WordOps])
	}
	v["intersect.calls"] = merges + gallops
	v["intersect.gallop_frac"] = ratio(gallops, merges+gallops)
	v["bitarray.word_ops"] = wordOps
}

// censusCompress times the varint graph codec over the graphs and the
// WAL's edge-stream encoding over the streamed edges.
func (b *bench) censusCompress(in censusInput, v map[string]float64) {
	var enc, dec, stream []float64
	var raw, packed float64
	edges := streamEdges(in.stream.g, b.cfg.seed)
	batches := chunks(edges, b.cfg.size.batch)
	var buf []byte
	for r := 0; r < b.cfg.size.censusReps; r++ {
		var te, td time.Duration
		for _, gi := range in.graphs {
			t0 := time.Now()
			c := compress.Encode(gi.g)
			te += time.Since(t0)
			t0 = time.Now()
			dg, err := c.DecodeInto(&compress.Arena{})
			td += time.Since(t0)
			b.tally.check(err == nil && slices.Equal(dg.Offsets(), gi.g.Offsets()) && slices.Equal(dg.RawNeighbors(), gi.g.RawNeighbors()),
				"%s: compress round trip differs from the graph (err %v)", gi.name, err)
			if r == 0 {
				raw += float64(8*(gi.g.NumVertices()+1)) + 4*float64(gi.g.NumDirectedEdges())
				packed += float64(c.SizeBytes())
			}
		}
		enc = append(enc, ms(te))
		dec = append(dec, ms(td))
		t0 := time.Now()
		for _, batch := range batches {
			buf = compress.AppendEdgeStream(buf[:0], batch)
		}
		stream = append(stream, 8*float64(len(edges))/1e6/time.Since(t0).Seconds())
	}
	last := batches[len(batches)-1]
	got, _, err := compress.ReadEdgeStream(compress.AppendEdgeStream(nil, last), len(last))
	b.tally.check(err == nil && slices.Equal(got, last), "edge stream round trip differs (err %v)", err)
	v["compress.encode_ms"] = median(enc)
	v["compress.decode_ms"] = median(dec)
	v["compress.ratio"] = ratio(raw, packed)
	v["compress.edge_stream_mb_per_s"] = median(stream)
}

// censusStreaming replays the streamed edges straight into the exact
// streaming counter and the TRIEST estimator, with no server between.
func (b *bench) censusStreaming(in graphInput, v map[string]float64) {
	edges := streamEdges(in.g, b.cfg.seed)
	hubs := topHubs(in.g, b.cfg.size.streamHubs)
	var exact, tri, relErr []float64
	for r := 0; r < b.cfg.size.censusReps; r++ {
		sc, err := core.NewStreaming(in.g.NumVertices(), hubs)
		if !b.tally.check(err == nil, "%s: core.NewStreaming: %v", in.name, err) {
			return
		}
		sc.CountNonHub = true
		t0 := time.Now()
		for _, e := range edges {
			sc.AddEdge(e[0], e[1])
		}
		exact = append(exact, float64(len(edges))/time.Since(t0).Seconds())
		hhh, hhn, hnn, nnn := sc.Classes()
		b.tally.check(hhh+hhn+hnn+nnn == in.ref, "%s: streamed classes %d/%d/%d/%d, reference %d", in.name, hhh, hhn, hnn, nnn, in.ref)

		ts := approx.NewTriest(approx.ReservoirForBudget(approxBudget), b.cfg.seed+int64(r))
		t0 = time.Now()
		for _, e := range edges {
			ts.AddEdge(e[0], e[1])
		}
		tri = append(tri, float64(len(edges))/time.Since(t0).Seconds())
		relErr = append(relErr, math.Abs(ts.Estimate()-float64(in.ref))/math.Max(float64(in.ref), 1))
	}
	v["core.streaming_edges_per_s"] = median(exact)
	v["approx.triest_edges_per_s"] = median(tri)
	v["approx.rel_error"] = median(relErr)
}

// censusServe sends every request class once or a few times to a fresh
// server for one graph, then streams the graph through a session pair.
func (b *bench) censusServe(in graphInput, v map[string]float64, samples map[string]int) error {
	srv, err := b.startServer(true, 1)
	if err != nil {
		return err
	}
	defer srv.close()
	before := srv.srv.Metrics().Snapshot()
	t := newQueryTarget(in)
	var sl serveLayers
	count := func(class string, body []byte) {
		var rep countReply
		lat, err := b.request(srv, nil, "serve."+class, "POST", "/v1/count", body, &rep)
		if b.checkCount(in.name+" "+class, err, &rep, in.ref) && class != "warm" {
			sl.noteGraph(rep.Cache.Graph)
		}
		sl.add(class, lat)
	}
	// The server has never seen the graph, so the first count is cold.
	count("cold", t.warm)
	for range 9 {
		count("warm", t.warm)
	}
	for i := range 3 {
		count("nocache", t.nocache)
		var tk serve.TopKResponse
		lat, err := b.request(srv, nil, "serve.topk", "POST", "/v1/topk", t.topkB, &tk)
		if b.checkTopK(in.name+" topk", err, &tk, &t) {
			sl.noteGraph(tk.Cache.Graph)
		}
		sl.add("topk", lat)
		var est serve.EstimateResponse
		lat, err = b.request(srv, nil, "serve.estimate", "POST", "/v1/estimate", t.estimateBody(int64(i)+1), &est)
		if b.checkEstimate(in.name+" estimate", err, &est, in.ref) {
			sl.noteGraph(est.Cache.Graph)
		}
		sl.add("estimate", lat)
	}
	sl.metrics(v, samples)
	cacheMetrics(v, before, srv.srv.Metrics().Snapshot(), len(sl.all))

	st := newStreamer(in, b.cfg.size, b.cfg.seed)
	snap0 := srv.srv.Metrics().Get(obs.StreamSnapshots)
	r, ok := st.round(b, srv, nil, 1, nil)
	if ok {
		var gets []time.Duration
		for range 16 {
			var s serve.StreamState
			lat, err := b.request(srv, nil, "stream.get", "GET", "/v1/stream/"+r.exactID, nil, &s)
			b.tally.check(err == nil && s.HHH+s.HHN+s.HNN+s.NNN == in.ref, "%s: session read: err %v", in.name, err)
			gets = append(gets, lat)
		}
		v["stream.ingest_exact_p50_ms"] = ms(quantile(r.exact, 0.5))
		v["stream.ingest_approx_p50_ms"] = ms(quantile(r.approx, 0.5))
		v["stream.get_p50_us"] = us(quantile(gets, 0.5))
		v["wal.bytes_per_edge"] = ratio(float64(r.walBytes), float64(r.edges))
		v["stream.snapshots"] = ratio(1e6*float64(srv.srv.Metrics().Get(obs.StreamSnapshots)-snap0), float64(r.edges))
		samples["stream.ingest_exact_p50_ms"] = len(r.exact)
		samples["stream.ingest_approx_p50_ms"] = len(r.approx)
		samples["stream.get_p50_us"] = len(gets)
	}
	b.deleteSessions(srv, r)
	if !ok {
		return fmt.Errorf("%s: streaming through the server failed", in.name)
	}
	return nil
}
