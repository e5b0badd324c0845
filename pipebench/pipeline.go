package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// Batch shape shared by every workload: AddEdge calls between random live
// vertices, then DeleteVertex on random live vertices, then a fresh
// snapshot and one verified BFS on it.
const (
	batchAdds    = 20000
	batchDeletes = 200
)

// input is what a workload's program receives, fixed by the seed before
// any timer starts.
type input struct {
	snap  []byte // SNAP edge list, for workloads that ingest through the loader
	hash  string // sha256 of the canonical SNAP form of the input graph
	verts int
	arcs  int64

	// Adjacency fingerprints of the first generated snapshot, kept on
	// traced runs to count gen.adjacency_drift against a second Generate.
	genIDs  []property.VertexID
	genSums []uint64
}

// prepare builds the input. A loader workload's SNAP bytes are the
// generated graph's sorted arc list, a pure function of the seed.
func prepare(w workload, seed int64, workers int, traced bool) (*input, error) {
	in := &input{}
	if !w.snap {
		return in, nil
	}
	d, err := gen.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	g := d.Generate(w.scale, seed, workers)
	vw := g.ViewWith(property.ViewOpts{Workers: workers})
	var buf bytes.Buffer
	if err := writeSNAP(&buf, vw); err != nil {
		return nil, err
	}
	in.snap = buf.Bytes()
	in.hash = fmt.Sprintf("%x", sha256.Sum256(in.snap))
	in.verts, in.arcs = mentioned(vw), vw.EdgeTotal()
	if traced {
		in.genIDs, in.genSums = adjacencyHashes(vw)
	}
	return in, nil
}

// mentioned counts the vertices an edge list of the view names: the ones
// a SNAP reader creates.
func mentioned(vw *property.View) int {
	seen := make([]bool, vw.Len())
	for i := range vw.Verts {
		for _, j := range vw.Adj(int32(i)) {
			seen[i], seen[j] = true, true
		}
	}
	n := 0
	for _, s := range seen {
		if s {
			n++
		}
	}
	return n
}

// pass is one run of the pipeline: setup, then the closed-loop phase in
// which one client issues each operation after the previous answer has
// been checked. With tr set, every call into the program is also a span.
type pass struct {
	w       workload
	seed    int64
	workers int
	in      *input
	tr      *tracer
	runSpan int32

	attempted, failed int
	errs              []string
	setupS            []float64
	samples           map[string][]float64 // op kind -> ms per call
	opTime            time.Duration        // timed program work in the phase
	twins             []float64            // traced over untraced time of one query
	liveHeapMB        float64

	// Traced passes only.
	probeSpan        int32
	driftCount       int
	gcSetup, gcPhase gcState

	// Check scratch, and the union-find component count of the last View
	// a CComp answer was checked on (the count depends on the View only).
	witnessed []bool
	ints      []int32
	floats    []float64
	parent    []int32
	ufView    *property.View
	ufComps   int
}

func newPass(w workload, seed int64, workers int, in *input, tr *tracer) *pass {
	return &pass{
		w: w, seed: seed, workers: workers, in: in, tr: tr,
		runSpan:    tr.begin("bench.pass", root),
		samples:    map[string][]float64{},
		driftCount: -1,
	}
}

// call times fn as one call into the program and opens a span around it.
// The timer encloses the span bookkeeping, so traced passes pay for their
// tracing in their own timings.
func (p *pass) call(name string, parent int32, fn func()) (time.Duration, int32) {
	t0 := time.Now()
	id := p.tr.begin(name, parent)
	fn()
	p.tr.end(id)
	return time.Since(t0), id
}

// verify runs one answer check outside the timed region and books the
// operation as attempted, and as failed when check reports an error.
func (p *pass) verify(parent int32, check func() error) {
	id := p.tr.begin("bench.verify", parent)
	err := check()
	p.tr.end(id)
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
	}
}

func (p *pass) scratch(n int) {
	if len(p.witnessed) < n {
		p.witnessed = make([]bool, n)
		p.parent = make([]int32, n)
	}
}

// setup turns the input into the first published View: Dataset.Generate
// or loader.ReadSNAP, then Graph.ViewWith.
func (p *pass) setup() (*property.Graph, *property.View, error) {
	runtime.GC()
	sp := p.tr.begin("bench.setup", p.runSpan)
	t0 := time.Now()
	var g *property.Graph
	var err error
	if p.w.snap {
		_, id := p.call("loader.ReadSNAP", sp, func() { g, err = loader.ReadSNAP(bytes.NewReader(p.in.snap)) })
		p.tr.count(id, "bytes", float64(len(p.in.snap)))
	} else {
		var d gen.Dataset
		if d, err = gen.ByName(p.w.dataset); err == nil {
			p.call("gen.Generate", sp, func() { g = d.Generate(p.w.scale, p.seed, p.workers) })
		}
	}
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	var vw *property.View
	p.call("property.ViewWith", sp, func() { vw = g.ViewWith(property.ViewOpts{Workers: p.workers}) })
	p.setupS = append(p.setupS, time.Since(t0).Seconds())
	p.tr.end(sp)
	p.verify(sp, func() error { return p.describeInput(vw) })
	return g, vw, nil
}

// describeInput fingerprints the first snapshot of a generated input
// (later setups and the loader input are checked against it).
func (p *pass) describeInput(vw *property.View) error {
	if p.in.hash == "" {
		h := sha256.New()
		if err := writeSNAP(h, vw); err != nil {
			return err
		}
		p.in.hash = fmt.Sprintf("%x", h.Sum(nil))
		p.in.verts, p.in.arcs = vw.Len(), vw.EdgeTotal()
		if p.tr != nil {
			p.in.genIDs, p.in.genSums = adjacencyHashes(vw)
		}
		return nil
	}
	if vw.Len() != p.in.verts || vw.EdgeTotal() != p.in.arcs {
		return fmt.Errorf("setup: %d vertices, %d arcs; first setup had %d, %d",
			vw.Len(), vw.EdgeTotal(), p.in.verts, p.in.arcs)
	}
	return nil
}

func (p *pass) opts(vw *property.View, src property.VertexID, workers int) workloads.Options {
	return workloads.Options{Workers: workers, View: vw, Source: src}
}

// bfs issues one workloads.BFS call and checks its level certificate.
func (p *pass) bfs(g *property.Graph, vw *property.View, src property.VertexID, workers int, name string, parent int32) time.Duration {
	var res *workloads.Result
	var err error
	d, _ := p.call(name, parent, func() { res, err = workloads.BFS(g, p.opts(vw, src, workers)) })
	p.verify(parent, func() error {
		if err != nil {
			return err
		}
		p.scratch(vw.Len())
		p.ints = intProps(vw, g.EnsureField(workloads.BFSLevelField), p.ints)
		reached, err := checkBFS(vw.NbrOff, vw.Nbr, p.ints, vw.IndexOf(src), p.witnessed)
		if err == nil && reached != res.Visited {
			err = fmt.Errorf("bfs: %d vertices carry levels, result says %d", reached, res.Visited)
		}
		return err
	})
	return d
}

// sssp issues one workloads.SPathDelta (or, by name, the serial SPath)
// call and checks the distances against every arc.
func (p *pass) sssp(g *property.Graph, vw *property.View, src property.VertexID, workers int, name string, parent int32) time.Duration {
	var res *workloads.Result
	var err error
	run := workloads.SPathDelta
	if name == "workloads.SPath" {
		run = workloads.SPath
	}
	d, id := p.call(name, parent, func() { res, err = run(g, p.opts(vw, src, workers)) })
	p.verify(parent, func() error {
		if err != nil {
			return err
		}
		p.tr.count(id, "buckets", res.Stats["buckets"])
		p.tr.count(id, "relaxed", res.Stats["relaxed"])
		p.tr.count(id, "reached", float64(res.Visited))
		p.scratch(vw.Len())
		p.floats = floatProps(vw, g.EnsureField(workloads.SPathDistField), p.floats)
		reached, err := checkSSSP(vw.NbrOff, vw.Nbr, vw.NbrW, p.floats, vw.IndexOf(src), p.witnessed)
		if err == nil && reached != res.Visited {
			err = fmt.Errorf("sssp: %d vertices reached, result says %d", reached, res.Visited)
		}
		return err
	})
	return d
}

// cc issues one workloads.CComp call and checks the labels.
func (p *pass) cc(g *property.Graph, vw *property.View, workers int, name string, parent int32) time.Duration {
	var res *workloads.Result
	var err error
	d, _ := p.call(name, parent, func() { res, err = workloads.CComp(g, p.opts(vw, 0, workers)) })
	p.verify(parent, func() error {
		if err != nil {
			return err
		}
		p.scratch(vw.Len())
		if p.ufView != vw {
			p.ufView, p.ufComps = vw, ufComponents(vw.NbrOff, vw.Nbr, p.parent)
		}
		p.ints = intProps(vw, g.EnsureField(workloads.CCompField), p.ints)
		return checkCC(vw.NbrOff, vw.Nbr, p.ints, int(res.Stats["components"]), p.ufComps, p.witnessed)
	})
	return d
}

// query issues one standalone query. On a traced pass it also issues an
// untraced twin of the same call, adjacent in time and alternately first
// and second, so the tracing overhead is measured on identical work.
func (p *pass) query(kind string, op func() time.Duration) {
	if p.tr == nil {
		p.sample(kind, op())
		return
	}
	tr := p.tr
	untraced := func() time.Duration {
		p.tr = nil
		defer func() { p.tr = tr }()
		return op()
	}
	var d, d0 time.Duration
	if len(p.twins)%2 == 0 {
		d0, d = untraced(), op()
	} else {
		d, d0 = op(), untraced()
	}
	p.twins = append(p.twins, float64(d)/float64(d0))
	p.sample(kind, d)
}

// sample books one timed operation of the phase.
func (p *pass) sample(kind string, d time.Duration) {
	p.samples[kind] = append(p.samples[kind], float64(d)/1e6)
	p.opTime += d
}

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// dyn is the state the update batches carry: the latest snapshot (every
// vertex in it is live), the ledger, and the random stream that picks
// endpoints and victims.
type dyn struct {
	rng *rand.Rand
	vw  *property.View
	l   ledger
}

func newDyn(g *property.Graph, vw *property.View, seed int64) *dyn {
	return &dyn{
		rng: newRNG(seed, 2),
		vw:  vw,
		l:   ledger{verts: int64(g.VertexCount()), edges: int64(g.EdgeCount())},
	}
}

func (st *dyn) pick() property.VertexID { return st.vw.Verts[st.rng.IntN(st.vw.Len())].ID }

// plan draws one batch before its timer starts: the AddEdge calls between
// random live vertices (on a directed graph as mirrored pairs, so the
// graph stays symmetric and components stay well defined), the distinct
// DeleteVertex victims — uniform over live vertices, hubs not excluded —
// and the BFS source.
func (st *dyn) plan(directed bool) (adds []arc, victims []property.VertexID, src property.VertexID) {
	adds = make([]arc, 0, batchAdds)
	for len(adds) < batchAdds {
		u, v := st.pick(), st.pick()
		if u == v {
			continue
		}
		w := float64(1 + st.rng.IntN(100))
		adds = append(adds, arc{u, v, w})
		if directed {
			adds = append(adds, arc{v, u, w})
		}
	}
	gone := make(map[property.VertexID]bool, batchDeletes)
	for len(victims) < batchDeletes {
		if id := st.pick(); !gone[id] {
			gone[id] = true
			victims = append(victims, id)
		}
	}
	for src = st.pick(); gone[src]; src = st.pick() {
	}
	return adds, victims, src
}

// batch runs one update batch and returns the fresh View. Its latency is
// the program's time from the first AddEdge to the BFS answer on the new
// snapshot; the checks in between are not counted.
func (p *pass) batch(g *property.Graph, st *dyn, parent int32) *property.View {
	adds, victims, src := st.plan(g.Directed())
	bs := p.tr.begin("bench.batch", parent)
	failed := 0
	t0 := time.Now()
	sp := p.tr.begin("property.AddEdge", bs)
	for _, a := range adds {
		if err := g.AddEdge(a.src, a.dst, a.w); err != nil {
			failed++
			continue
		}
		st.l.edges++
	}
	p.tr.end(sp)
	p.tr.count(sp, "calls", float64(len(adds)))

	removed := 0
	sp = p.tr.begin("property.DeleteVertex", bs)
	for _, id := range victims {
		r, err := g.DeleteVertex(id)
		if err != nil {
			failed++
			continue
		}
		removed += r
		st.l.edges -= int64(r)
		st.l.verts--
	}
	p.tr.end(sp)
	p.tr.count(sp, "calls", float64(len(victims)))
	p.tr.count(sp, "edges_removed", float64(removed))
	dWrite := time.Since(t0)

	var vw *property.View
	dView, _ := p.call("property.ViewWith", bs, func() { vw = g.ViewWith(property.ViewOpts{Workers: p.workers}) })
	dBFS := p.bfs(g, vw, src, p.workers, "workloads.BFS", bs)
	d := dWrite + dView + dBFS
	p.tr.end(bs)

	st.vw = vw
	p.samples["bfs"] = append(p.samples["bfs"], float64(dBFS)/1e6)
	p.sample("update_batch", d)
	p.verify(bs, func() error {
		if failed > 0 {
			return fmt.Errorf("batch: %d AddEdge/DeleteVertex calls failed", failed)
		}
		return checkLedger(st.l, g, vw)
	})
	return vw
}
