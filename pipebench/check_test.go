package main

import (
	"bytes"
	"math"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/loader"
	"github.com/graphbig/graphbig-go/internal/property"
	"github.com/graphbig/graphbig-go/internal/workloads"
)

// Each check must accept the program's real answer on a small graph and
// reject the same answer with one deliberate corruption.

func small(t *testing.T, dataset string, scale float64) (*property.Graph, *property.View) {
	t.Helper()
	d, err := gen.ByName(dataset)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(scale, 7, 2)
	return g, g.ViewWith(property.ViewOpts{Workers: 2})
}

// deepest returns a vertex at the largest level, and its level.
func deepest(level []int32) (int32, int32) {
	best := int32(0)
	for i, l := range level {
		if l > level[best] {
			best = int32(i)
		}
	}
	return best, level[best]
}

func TestCheckBFS(t *testing.T) {
	g, vw := small(t, "ldbc", 0.002)
	src := vw.Verts[5].ID
	res, err := workloads.BFS(g, workloads.Options{View: vw, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	level := intProps(vw, g.EnsureField(workloads.BFSLevelField), nil)
	si := vw.IndexOf(src)
	scratch := make([]bool, vw.Len())
	reached, err := checkBFS(vw.NbrOff, vw.Nbr, level, si, scratch)
	if err != nil || reached != res.Visited {
		t.Fatalf("real answer rejected: reached %d of %d, %v", reached, res.Visited, err)
	}
	v, l := deepest(level)
	if l < 2 {
		t.Fatalf("need a vertex two levels down, deepest is %d", l)
	}
	for _, delta := range []int32{+1, -1} {
		bad := append([]int32(nil), level...)
		bad[v] += delta
		if _, err := checkBFS(vw.NbrOff, vw.Nbr, bad, si, scratch); err == nil {
			t.Errorf("level of vertex %d moved by %+d was accepted", v, delta)
		}
	}
}

func TestCheckSSSP(t *testing.T) {
	g, vw := small(t, "ca-road", 0.001)
	src := vw.Verts[3].ID
	res, err := workloads.SPathDelta(g, workloads.Options{View: vw, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	dist := floatProps(vw, g.EnsureField(workloads.SPathDistField), nil)
	si := vw.IndexOf(src)
	scratch := make([]bool, vw.Len())
	reached, err := checkSSSP(vw.NbrOff, vw.Nbr, vw.NbrW, dist, si, scratch)
	if err != nil || reached != res.Visited {
		t.Fatalf("real answer rejected: reached %d of %d, %v", reached, res.Visited, err)
	}
	v := -1
	for i, d := range dist {
		if int32(i) != si && !math.IsInf(d, 1) && (v < 0 || d > dist[v]) {
			v = i
		}
	}
	for _, dir := range []float64{math.Inf(1), 0} {
		bad := append([]float64(nil), dist...)
		bad[v] = math.Nextafter(bad[v], dir)
		if _, err := checkSSSP(vw.NbrOff, vw.Nbr, vw.NbrW, bad, si, scratch); err == nil {
			t.Errorf("distance of vertex %d moved by one ulp towards %v was accepted", v, dir)
		}
	}
	// A distance raised to the sum along a longer in-arc still has a tight
	// in-arc; on a vertex that is no one's tight predecessor, only the
	// bound over its shorter in-arc rejects it.
	parent := make([]bool, vw.Len())
	for u := range vw.Verts {
		for k, x := range vw.Adj(int32(u)) {
			if dist[u]+vw.AdjW(int32(u))[k] == dist[x] {
				parent[u] = true
			}
		}
	}
	for u := range vw.Verts {
		for k, x := range vw.Adj(int32(u)) {
			via := dist[u] + vw.AdjW(int32(u))[k]
			if x == si || parent[x] || math.IsInf(via, 1) || via <= dist[x] {
				continue
			}
			bad := append([]float64(nil), dist...)
			bad[x] = via
			if _, err := checkSSSP(vw.NbrOff, vw.Nbr, vw.NbrW, bad, si, scratch); err == nil {
				t.Errorf("distance of vertex %d raised to %v along a longer path was accepted", x, via)
			}
			return
		}
	}
	t.Fatal("no vertex with a longer in-arc")
}

func TestCheckCC(t *testing.T) {
	g, vw := small(t, "ca-road", 0.001)
	res, err := workloads.CComp(g, workloads.Options{View: vw})
	if err != nil {
		t.Fatal(err)
	}
	comps := int(res.Stats["components"])
	if comps < 2 {
		t.Fatalf("need two components, have %d", comps)
	}
	label := intProps(vw, g.EnsureField(workloads.CCompField), nil)
	scratch := make([]bool, vw.Len())
	want := ufComponents(vw.NbrOff, vw.Nbr, make([]int32, vw.Len()))
	if err := checkCC(vw.NbrOff, vw.Nbr, label, comps, want, scratch); err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	bad := append([]int32(nil), label...)
	for i := range bad {
		if bad[i] == 1 {
			bad[i] = 0
		}
	}
	if err := checkCC(vw.NbrOff, vw.Nbr, bad, comps, want, scratch); err == nil {
		t.Error("labels 0 and 1 merged were accepted")
	}
}

func TestCheckLedger(t *testing.T) {
	g0, vw0 := small(t, "twitter", 0.0005)
	var buf bytes.Buffer
	if err := writeSNAP(&buf, vw0); err != nil {
		t.Fatal(err)
	}
	g, err := loader.ReadSNAP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != g0.EdgeCount()*2 {
		t.Fatalf("SNAP round trip: %d arcs from %d undirected edges", g.EdgeCount(), g0.EdgeCount())
	}
	st := newDyn(g, g.ViewWith(property.ViewOpts{}), 3)
	adds, victims, _ := st.plan(g.Directed())
	for _, a := range adds {
		if err := g.AddEdge(a.src, a.dst, a.w); err != nil {
			t.Fatal(err)
		}
		st.l.edges++
	}
	for _, id := range victims {
		r, err := g.DeleteVertex(id)
		if err != nil {
			t.Fatal(err)
		}
		st.l.edges -= int64(r)
		st.l.verts--
	}
	vw := g.ViewWith(property.ViewOpts{})
	if err := checkLedger(st.l, g, vw); err != nil {
		t.Fatalf("real ledger rejected: %v", err)
	}
	for _, bad := range []ledger{{st.l.verts, st.l.edges + 1}, {st.l.verts, st.l.edges - 1}, {st.l.verts + 1, st.l.edges}} {
		if err := checkLedger(bad, g, vw); err == nil {
			t.Errorf("ledger %+v off by one was accepted", bad)
		}
	}
}

// The SNAP input must be a pure function of the seed.
func TestSNAPDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	_, vw := small(t, "twitter", 0.0005)
	if err := writeSNAP(&a, vw); err != nil {
		t.Fatal(err)
	}
	_, vw = small(t, "twitter", 0.0005)
	if err := writeSNAP(&b, vw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two same-seed inputs differ")
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond)", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
}
