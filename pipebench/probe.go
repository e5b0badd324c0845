package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"

	"github.com/graphbig/graphbig-go/internal/engine"
	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/property"
)

// Layer probes run on traced passes only. They time, on the set-up
// snapshot and from the same sources, what the closed loop cannot
// separate: engine.Traverse alone, every kernel at one worker, the serial
// Dijkstra baseline, ViewWith and gen.Build at both worker counts.
const probeSources = 5

func (p *pass) probeView(g *property.Graph, vw *property.View) {
	ps := p.tr.begin("bench.probe", p.runSpan)
	p.probeSpan = ps
	rng := newRNG(p.seed, 3)
	n := vw.Len()
	for range probeSources {
		src := vw.Verts[rng.IntN(n)].ID
		for _, serial := range []bool{false, true} {
			w, sfx := p.column(serial)
			p.traverse(g, vw, src, w, "engine.Traverse"+sfx, ps)
			p.bfs(g, vw, src, w, "workloads.BFS"+sfx, ps)
			p.sssp(g, vw, src, w, "workloads.SPathDelta"+sfx, ps)
			p.cc(g, vw, w, "workloads.CComp"+sfx, ps)
		}
		p.sssp(g, vw, src, 1, "workloads.SPath", ps)
	}
	for range 3 {
		for _, serial := range []bool{false, true} {
			w, sfx := p.column(serial)
			var v2 *property.View
			p.call("property.ViewWith"+sfx, ps, func() { v2 = g.ViewWith(property.ViewOpts{Workers: w}) })
			p.verify(ps, func() error { return sameCSR(vw, v2) })
		}
	}
	edges, nv := packedEdges(vw)
	want := distinct(edges)
	for range 3 {
		for _, serial := range []bool{false, true} {
			w, sfx := p.column(serial)
			runtime.GC()                    // collect the previous probe graph before building another
			e := make([]uint64, len(edges)) // Build sorts its argument in place
			copy(e, edges)
			var b *property.Graph
			p.call("gen.Build"+sfx, ps, func() { b = gen.Build(nv, e, gen.BuildOpts{Workers: w}) })
			p.verify(ps, func() error {
				if b.EdgeCount() != want {
					return fmt.Errorf("gen.Build: %d edges from %d distinct", b.EdgeCount(), want)
				}
				return nil
			})
		}
	}
	p.tr.end(ps)
}

// column returns the worker count and span-name suffix of a probe: the
// serial column is suffixed /w1; the GOMAXPROCS column carries no suffix,
// so its spans share a name with the loop's calls of the same function.
func (p *pass) column(serial bool) (int, string) {
	if serial {
		return 1, "/w1"
	}
	return p.workers, ""
}

// traverse times engine.Traverse alone from src and checks its levels.
func (p *pass) traverse(g *property.Graph, vw *property.View, src property.VertexID, w int, name string, parent int32) {
	eng := engine.New(g, vw, w)
	dist := make([]int32, vw.Len())
	for i := range dist {
		dist[i] = -1
	}
	si := vw.IndexOf(src)
	dist[si] = 0
	var st engine.Stats
	_, id := p.call(name, parent, func() { st = eng.Traverse(&engine.Spec{Dist: dist}, si) })
	p.tr.count(id, "push_rounds", float64(st.PushRounds))
	p.tr.count(id, "pull_rounds", float64(st.PullRounds))
	p.tr.count(id, "depth", float64(st.Depth))
	p.verify(parent, func() error {
		p.scratch(vw.Len())
		reached, err := checkBFS(vw.NbrOff, vw.Nbr, dist, si, p.witnessed)
		if err == nil && reached != st.Reached {
			err = fmt.Errorf("traverse: %d vertices reached, stats say %d", reached, st.Reached)
		}
		return err
	})
}

func sameCSR(a, b *property.View) error {
	if !slices.Equal(a.NbrOff, b.NbrOff) || a.EdgeTotal() != b.EdgeTotal() {
		return fmt.Errorf("view: snapshots of one graph differ in shape")
	}
	return nil
}

func distinct(edges []uint64) int {
	s := slices.Clone(edges)
	slices.Sort(s)
	return len(slices.Compact(s))
}

// probeRegenerate runs after the phase, with the loop's graph released: a
// second same-seed Generate (gen.adjacency_drift, and its canonical form
// must hash to the input's), then loader.ReadSNAP on that edge list.
func (p *pass) probeRegenerate() {
	ps := p.tr.begin("bench.probe", root)
	d, err := gen.ByName(p.w.dataset)
	if err != nil {
		p.verify(ps, func() error { return err })
		return
	}
	var g *property.Graph
	p.call("gen.Generate", ps, func() { g = d.Generate(p.w.scale, p.seed, p.workers) })
	vw := g.ViewWith(property.ViewOpts{Workers: p.workers})
	ids, sums := adjacencyHashes(vw)
	p.driftCount = drift(p.in.genIDs, p.in.genSums, ids, sums)
	var buf bytes.Buffer
	p.verify(ps, func() error {
		if err := writeSNAP(&buf, vw); err != nil {
			return err
		}
		if h := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); h != p.in.hash {
			return fmt.Errorf("input: same-seed Generate hashes to %s, first input %s", h, p.in.hash)
		}
		return nil
	})
	snap := buf.Bytes()
	runtime.GC()
	var lg *property.Graph
	var lerr error
	_, id := p.call("loader.ReadSNAP", ps, func() { lg, lerr = loader.ReadSNAP(bytes.NewReader(snap)) })
	p.tr.count(id, "bytes", float64(len(snap)))
	p.verify(ps, func() error {
		if lerr != nil {
			return lerr
		}
		if got := int64(lg.EdgeCount()); got != p.in.arcs {
			return fmt.Errorf("loader: %d arcs read, %d written", got, p.in.arcs)
		}
		return nil
	})
	p.tr.end(ps)
}

// layerMetric is one per-layer value with its unit, in report order.
type layerMetric struct {
	name, unit string
	value      float64
}

// perLayer derives the per-layer metrics from the traced pass's spans and
// counts.
func perLayer(p *pass, out io.Writer) map[string]metric {
	t := p.tr
	ms := func(ss []*span) []float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = float64(s.dur()) / 1e6
		}
		return xs
	}
	cnt := func(ss []*span, k string) []float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = s.Counts[k]
		}
		return xs
	}
	under := func(ss []*span, parent int32) []*span {
		var o []*span
		for _, s := range ss {
			if s.Parent == parent {
				o = append(o, s)
			}
		}
		return o
	}
	perCall := func(name string, scale float64) float64 {
		ss := t.named(name)
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = float64(s.dur()) / scale / max(s.Counts["calls"], 1)
		}
		return median(xs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	med := func(name string) float64 { return median(ms(t.named(name))) }
	alloc := func(name string, scale float64) float64 { return median(cnt(t.named(name), "alloc_bytes")) / scale }

	gens := t.named("gen.Generate")
	reads := t.named("loader.ReadSNAP")
	readMS := median(ms(reads))
	viewProbe := median(ms(under(t.named("property.ViewWith"), p.probeSpan)))
	trav := t.named("engine.Traverse")
	travMS := median(ms(trav))
	perRound := make([]float64, len(trav))
	for i, s := range trav {
		perRound[i] = float64(s.dur()) / 1e3 / max(s.Counts["push_rounds"]+s.Counts["pull_rounds"], 1)
	}
	sssp := t.named("workloads.SPathDelta")
	relaxPer := make([]float64, len(sssp))
	for i, s := range sssp {
		relaxPer[i] = ratio(s.Counts["relaxed"], s.Counts["reached"])
	}
	ssspProbe := median(ms(under(sssp, p.probeSpan)))
	dijkstra := med("workloads.SPath")
	heapPeak := 0.0
	for i := range t.spans {
		heapPeak = max(heapPeak, t.spans[i].Counts["heap_bytes"])
	}
	verify := 0.0
	for _, s := range t.named("bench.verify") {
		verify += float64(s.dur()) / 1e6
	}
	gcs := p.gcSetup.plus(p.gcPhase)
	ls := []layerMetric{
		{"gen.generate_ms", "ms", median(ms(gens))},
		{"gen.alloc_mb", "MB", median(cnt(gens, "alloc_bytes")) / 1e6},
		{"gen.build_ms", "ms", med("gen.Build")},
		{"gen.build_ms_w1", "ms", med("gen.Build/w1")},
		{"gen.adjacency_drift", "count", float64(p.driftCount)},
		{"loader.read_snap_ms", "ms", readMS},
		{"loader.mb_per_s", "MB/s", ratio(median(cnt(reads, "bytes"))/1e6, readMS/1e3)},
		{"loader.alloc_mb", "MB", alloc("loader.ReadSNAP", 1e6)},
		{"property.view_ms", "ms", med("property.ViewWith")},
		{"property.view_ms_w1", "ms", med("property.ViewWith/w1")},
		{"property.view_speedup", "ratio", ratio(med("property.ViewWith/w1"), viewProbe)},
		{"property.view_alloc_mb", "MB", alloc("property.ViewWith", 1e6)},
		{"property.add_edge_ns", "ns", perCall("property.AddEdge", 1)},
		{"property.delete_vertex_us", "us", perCall("property.DeleteVertex", 1e3)},
		{"property.edges_removed", "count", median(cnt(t.named("property.DeleteVertex"), "edges_removed"))},
		{"engine.traverse_ms", "ms", travMS},
		{"engine.traverse_ms_w1", "ms", med("engine.Traverse/w1")},
		{"engine.traverse_speedup", "ratio", ratio(med("engine.Traverse/w1"), travMS)},
		{"engine.push_rounds", "count", median(cnt(trav, "push_rounds"))},
		{"engine.pull_rounds", "count", median(cnt(trav, "pull_rounds"))},
		{"engine.depth", "count", median(cnt(trav, "depth"))},
		{"engine.us_per_round", "us", median(perRound)},
		{"workloads.bfs_wrap_ms", "ms", median(ms(under(t.named("workloads.BFS"), p.probeSpan))) - travMS},
		{"workloads.sssp_buckets", "count", median(cnt(sssp, "buckets"))},
		{"workloads.sssp_relaxed", "count", median(cnt(sssp, "relaxed"))},
		{"workloads.sssp_relax_per_reached", "ratio", median(relaxPer)},
		{"workloads.bfs_ms_w1", "ms", med("workloads.BFS/w1")},
		{"workloads.sssp_ms_w1", "ms", med("workloads.SPathDelta/w1")},
		{"workloads.cc_ms_w1", "ms", med("workloads.CComp/w1")},
		{"workloads.sssp_dijkstra_ms", "ms", dijkstra},
		{"workloads.sssp_cost_ratio", "ratio", ratio(ssspProbe, dijkstra)},
		{"workloads.bfs_alloc_kb", "KB", alloc("workloads.BFS", 1e3)},
		{"workloads.sssp_alloc_kb", "KB", alloc("workloads.SPathDelta", 1e3)},
		{"workloads.cc_alloc_kb", "KB", alloc("workloads.CComp", 1e3)},
		{"runtime.gc_cycles", "count", float64(gcs.cycles)},
		{"runtime.gc_pause_ms", "ms", float64(gcs.pauseNs) / 1e6},
		{"runtime.heap_peak_mb", "MB", heapPeak / 1e6},
		{"bench.verify_ms", "ms", verify},
		{"bench.trace_overhead_frac", "ratio", median(p.twins) - 1},
	}
	m := make(map[string]metric, len(ls))
	for _, l := range ls {
		m[l.name] = metric{l.value, l.unit}
		fmt.Fprintf(out, "metric %s %.6g %s\n", l.name, l.value, l.unit)
	}
	fmt.Fprintf(out, "# gc setup: %s; phase: %s\n", p.gcSetup, p.gcPhase)
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, k := range names {
		fmt.Fprintf(out, "# self %-28s %10.2f ms\n", k, float64(self[k])/1e6)
	}
	return m
}
