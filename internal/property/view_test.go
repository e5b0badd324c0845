package property

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// buildViewTestGraph returns a directed graph exercising the awkward
// resolution paths: sparse IDs (defeating the dense-ID path when spread
// is large), dead edge targets, and uneven degrees.
func buildViewTestGraph(t testing.TB, n int, seed int64, sparse bool) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]VertexID, n)
	for i := range ids {
		if sparse {
			ids[i] = VertexID(i*97 + rng.Intn(13)*7919)
		} else {
			ids[i] = VertexID(i)
		}
	}
	g := buildGraphOnIDs(t, ids, rng)
	// Kill some vertices so resolution must drop edges to dead targets.
	for i := 3; i < n; i += 11 {
		if _, err := g.DeleteVertex(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// buildGraphOnIDs returns a directed graph on exactly the given vertex
// IDs with random, unevenly distributed weighted edges among them.
func buildGraphOnIDs(t testing.TB, ids []VertexID, rng *rand.Rand) *Graph {
	t.Helper()
	n := len(ids)
	g := New(Options{Directed: true, TrackInEdges: true, Shards: 16, Hint: n})
	for _, id := range ids {
		g.AddVertex(id)
	}
	for i := 0; i < n; i++ {
		d := rng.Intn(8)
		if i%17 == 0 {
			d += 24 // a few heavy hitters
		}
		for k := 0; k < d; k++ {
			to := ids[rng.Intn(n)]
			if to == ids[i] {
				continue
			}
			if err := g.AddEdge(ids[i], to, float64(rng.Intn(9)+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func viewsEqual(t *testing.T, label string, a, b *View) {
	t.Helper()
	if len(a.Verts) != len(b.Verts) {
		t.Fatalf("%s: vert count %d != %d", label, len(a.Verts), len(b.Verts))
	}
	for i := range a.Verts {
		if a.Verts[i] != b.Verts[i] {
			t.Fatalf("%s: Verts[%d] differ: %d vs %d", label, i, a.Verts[i].ID, b.Verts[i].ID)
		}
	}
	eq32 := func(name string, x, y []int32) {
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d != %d", label, name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: %s[%d] = %d != %d", label, name, i, x[i], y[i])
			}
		}
	}
	eq32("NbrOff", a.NbrOff, b.NbrOff)
	eq32("Nbr", a.Nbr, b.Nbr)
	eq32("InOff", a.InOff, b.InOff)
	eq32("InNbr", a.InNbr, b.InNbr)
	for i := range a.NbrW {
		if a.NbrW[i] != b.NbrW[i] {
			t.Fatalf("%s: NbrW[%d] = %v != %v", label, i, a.NbrW[i], b.NbrW[i])
		}
	}
	// The ID index: every ID up to just past the largest live one, plus
	// IDs far above it, which no view may claim.
	var maxID VertexID
	for _, v := range a.Verts {
		maxID = max(maxID, v.ID)
	}
	for id := VertexID(0); id <= maxID+2; id++ {
		if a.IndexOf(id) != b.IndexOf(id) {
			t.Fatalf("%s: IndexOf(%d) = %d != %d", label, id, a.IndexOf(id), b.IndexOf(id))
		}
	}
	for _, id := range []VertexID{maxID + 1000, 2*maxID + 4096, 1 << 40, math.MaxUint64} {
		if a.IndexOf(id) != -1 || b.IndexOf(id) != -1 {
			t.Fatalf("%s: IndexOf(%d) = %d, %d, want -1", label, id, a.IndexOf(id), b.IndexOf(id))
		}
	}
}

// TestViewParallelMatchesReference checks the tentpole's central contract:
// ViewWith output is a function of graph state only, identical across
// worker counts and identical to the retained seed implementation.
func TestViewParallelMatchesReference(t *testing.T) {
	check := func(label string, g *Graph, dense bool) {
		t.Helper()
		ref := g.ViewReference()
		for _, w := range []int{1, 2, 8} {
			vw := g.ViewWith(ViewOpts{Workers: w})
			if (vw.lut != nil) != dense || (vw.pos != nil) == dense {
				t.Fatalf("%s, %d workers: dense path = %v, want %v", label, w, vw.lut != nil, dense)
			}
			viewsEqual(t, fmt.Sprintf("%s, %d workers", label, w), ref, vw)
		}
	}
	for _, sparse := range []bool{false, true} {
		for _, n := range []int{1, 5, 300, 3000} {
			g := buildViewTestGraph(t, n, int64(n)+3, sparse)
			vs := g.ViewReference().Verts
			dense := len(vs) == 0 || uint64(vs[len(vs)-1].ID) < denseIDLimit(len(vs))
			if !sparse && !dense {
				t.Fatalf("n=%d: contiguous IDs must take the dense path", n)
			}
			check(fmt.Sprintf("n=%d sparse=%v", n, sparse), g, dense)
		}
	}

	// The path boundary: IDs 0..n-2 plus one at the highest ID the dense
	// path takes, then at the lowest one it leaves to the sparse path.
	const n = 3000
	for _, top := range []VertexID{VertexID(denseIDLimit(n) - 1), VertexID(denseIDLimit(n))} {
		ids := make([]VertexID, n)
		for i := range ids {
			ids[i] = VertexID(i)
		}
		ids[n-1] = top
		g := buildGraphOnIDs(t, ids, rand.New(rand.NewSource(int64(top))))
		check(fmt.Sprintf("max ID %d", top), g, uint64(top) < denseIDLimit(n))
	}

	// The highest-ID vertex is deleted: the table ends below its ID, and
	// the ID must resolve to -1.
	g := buildViewTestGraph(t, 300, 17, false)
	if _, err := g.DeleteVertex(299); err != nil {
		t.Fatal(err)
	}
	check("top deleted", g, true)
	if i := g.View().IndexOf(299); i != -1 {
		t.Fatalf("IndexOf(deleted top) = %d, want -1", i)
	}

	// Every vertex deleted, from either ID layout: an empty view, which
	// takes the dense path with a one-entry table.
	for _, sparse := range []bool{false, true} {
		g := buildViewTestGraph(t, 40, 23, sparse)
		for _, v := range g.View().Verts {
			if _, err := g.DeleteVertex(v.ID); err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("all deleted sparse=%v", sparse), g, true)
		if vw := g.View(); vw.Len() != 0 || vw.EdgeTotal() != 0 {
			t.Fatalf("all deleted: view has %d vertices, %d edges", vw.Len(), vw.EdgeTotal())
		}
	}
}

// TestReverseCSRParallelMatchesSerial is the satellite property test: the
// per-worker-histogram counting sort must match the serial counting sort
// exactly for arbitrary CSRs and worker counts.
func TestReverseCSRParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 1024 + rng.Intn(6000) // above the serial-fallback floor
		off := make([]int32, n+1)
		for i := 0; i < n; i++ {
			off[i+1] = off[i] + int32(rng.Intn(6))
		}
		nbr := make([]int32, off[n])
		for i := range nbr {
			nbr[i] = int32(rng.Intn(n))
		}
		wantOff, wantNbr := reverseCSRSerial(n, off, nbr)
		for _, w := range []int{2, 3, 7, 16} {
			gotOff, gotNbr := reverseCSR(n, off, nbr, w)
			for i := range wantOff {
				if gotOff[i] != wantOff[i] {
					t.Fatalf("w=%d inOff[%d] = %d != %d", w, i, gotOff[i], wantOff[i])
				}
			}
			for i := range wantNbr {
				if gotNbr[i] != wantNbr[i] {
					t.Fatalf("w=%d inNbr[%d] = %d != %d", w, i, gotNbr[i], wantNbr[i])
				}
			}
		}
	}
}

// TestViewOrderComposition checks the remap contract: under any
// permutation the per-VertexID adjacency (neighbor ID multisets with
// weights), IndexOf, sys.index, and the reverse arrays all stay mutually
// consistent with the unordered baseline.
func TestViewOrderComposition(t *testing.T) {
	// Dense IDs index the view by table, sparse ones by map; applyOrder
	// must remap whichever the view carries.
	for _, sparse := range []bool{false, true} {
		t.Run(fmt.Sprintf("sparse=%v", sparse), func(t *testing.T) {
			testViewOrderComposition(t, sparse)
		})
	}
}

func testViewOrderComposition(t *testing.T, sparse bool) {
	g := buildViewTestGraph(t, 500, 21, sparse)
	base := g.View()
	if (base.lut == nil) != sparse {
		t.Fatalf("sparse=%v: view took the other ID-index path", sparse)
	}
	idxSlot := g.EnsureField(SysIndexField)
	var maxID VertexID
	for _, v := range base.Verts {
		maxID = max(maxID, v.ID)
	}

	reverse := func(n int) OrderFunc {
		return func(vn int, off, nbr []int32) []int32 {
			perm := make([]int32, vn)
			for i := range perm {
				perm[i] = int32(vn - 1 - i)
			}
			return perm
		}
	}
	shuffle := func(seed int64) OrderFunc {
		return func(vn int, off, nbr []int32) []int32 {
			perm := make([]int32, vn)
			for i := range perm {
				perm[i] = int32(i)
			}
			rand.New(rand.NewSource(seed)).Shuffle(vn, func(a, b int) {
				perm[a], perm[b] = perm[b], perm[a]
			})
			return perm
		}
	}

	type edge struct {
		to VertexID
		w  float64
	}
	adjOf := func(vw *View) map[VertexID][]edge {
		m := make(map[VertexID][]edge, vw.Len())
		for i, v := range vw.Verts {
			i32 := Index32(i)
			adj, wts := vw.Adj(i32), vw.AdjW(i32)
			es := make([]edge, len(adj))
			for k := range adj {
				es[k] = edge{vw.Verts[adj[k]].ID, wts[k]}
			}
			m[v.ID] = es
		}
		return m
	}
	want := adjOf(base)

	for name, ord := range map[string]OrderFunc{"reverse": reverse(0), "shuffle": shuffle(7)} {
		vw := g.ViewWith(ViewOpts{Order: ord, Workers: 4})
		if vw.Len() != base.Len() {
			t.Fatalf("%s: length changed", name)
		}
		got := adjOf(vw)
		for id, es := range want {
			ges := got[id]
			if len(ges) != len(es) {
				t.Fatalf("%s: vertex %d degree %d != %d", name, id, len(ges), len(es))
			}
			for k := range es {
				// Within-vertex neighbor order must be preserved exactly.
				if ges[k] != es[k] {
					t.Fatalf("%s: vertex %d edge %d = %v != %v", name, id, k, ges[k], es[k])
				}
			}
		}
		for i, v := range vw.Verts {
			if vw.IndexOf(v.ID) != Index32(i) {
				t.Fatalf("%s: IndexOf(%d) = %d, want %d", name, v.ID, vw.IndexOf(v.ID), i)
			}
			if int(v.Prop(idxSlot)) != i {
				t.Fatalf("%s: sys.index of %d = %v, want %d", name, v.ID, v.Prop(idxSlot), i)
			}
		}
		// IDs absent from the view, deleted ones included, stay absent.
		for id := VertexID(0); id <= maxID+2; id++ {
			if (vw.IndexOf(id) < 0) != (base.IndexOf(id) < 0) {
				t.Fatalf("%s: IndexOf(%d) = %d, unordered view has %d", name, id, vw.IndexOf(id), base.IndexOf(id))
			}
		}
		// Reverse arrays: brute-force in-neighbor sets from the forward CSR.
		n := vw.Len()
		wantIn := make([][]int32, n)
		for i := 0; i < n; i++ {
			for _, j := range vw.Adj(Index32(i)) {
				wantIn[j] = append(wantIn[j], Index32(i))
			}
		}
		for j := 0; j < n; j++ {
			got := vw.InAdj(Index32(j))
			if len(got) != len(wantIn[j]) {
				t.Fatalf("%s: in-degree of %d = %d, want %d", name, j, len(got), len(wantIn[j]))
			}
			for k := range got {
				// Sources were appended in ascending i, matching the
				// counting sort's ascending-source invariant.
				if got[k] != wantIn[j][k] {
					t.Fatalf("%s: InAdj(%d)[%d] = %d, want %d", name, j, k, got[k], wantIn[j][k])
				}
			}
		}
	}
}

func TestApplyOrderRejectsNonBijections(t *testing.T) {
	g := buildViewTestGraph(t, 40, 5, false)
	for name, bad := range map[string]OrderFunc{
		"short":     func(n int, off, nbr []int32) []int32 { return make([]int32, n/2) },
		"duplicate": func(n int, off, nbr []int32) []int32 { return make([]int32, n) },
		"range": func(n int, off, nbr []int32) []int32 {
			p := make([]int32, n)
			for i := range p {
				p[i] = int32(n) // out of range
			}
			return p
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			g.ViewWith(ViewOpts{Order: bad})
		}()
	}
}

func TestRelayoutPreservesContent(t *testing.T) {
	g := buildViewTestGraph(t, 200, 9, false)
	vw := g.View()
	type snap struct {
		id    VertexID
		props []float64
		out   []Edge
	}
	before := make([]snap, vw.Len())
	for i, v := range vw.Verts {
		before[i] = snap{v.ID, append([]float64(nil), v.props...), append([]Edge(nil), v.Out...)}
	}
	Relayout(g, vw)
	for i, v := range vw.Verts {
		if v.ID != before[i].id {
			t.Fatalf("vertex %d ID changed", i)
		}
		for k := range v.props {
			if v.props[k] != before[i].props[k] {
				t.Fatalf("vertex %d prop %d changed", i, k)
			}
		}
		for k := range v.Out {
			if v.Out[k].To != before[i].out[k].To || v.Out[k].Weight != before[i].out[k].Weight {
				t.Fatalf("vertex %d edge %d changed", i, k)
			}
		}
	}
	// Addresses follow view order: each vertex record sits after its
	// predecessor's.
	for i := 1; i < vw.Len(); i++ {
		if vw.Verts[i].addr <= vw.Verts[i-1].addr {
			t.Fatalf("relayout order broken at %d: %d <= %d", i, vw.Verts[i].addr, vw.Verts[i-1].addr)
		}
	}
}

func TestViewWithPartitions(t *testing.T) {
	g := buildViewTestGraph(t, 300, 11, false)
	if g.View().Partitions() != nil {
		t.Fatal("default view should carry no partition plan")
	}
	for _, k := range []int{1, 3, 7} {
		vw := g.ViewWith(ViewOpts{Partitions: k, Workers: 4})
		plan := vw.Partitions()
		if plan == nil {
			t.Fatalf("k=%d: no plan recorded", k)
		}
		if plan.K != k {
			t.Fatalf("k=%d: plan has %d partitions", k, plan.K)
		}
		// The plan covers the view's index space and owns every vertex.
		if got := int(plan.Bounds[len(plan.Bounds)-1]); got != vw.Len() {
			t.Fatalf("k=%d: plan covers %d vertices, view has %d", k, got, vw.Len())
		}
		// The plan was built over the post-order CSR: boundary vertices
		// must be exactly those with a cross-partition out- or in-edge.
		for v := int32(0); int(v) < vw.Len(); v++ {
			cross := false
			for _, u := range vw.Adj(v) {
				if plan.Of(u) != plan.Of(v) {
					cross = true
				}
			}
			for _, u := range vw.InAdj(v) {
				if plan.Of(u) != plan.Of(v) {
					cross = true
				}
			}
			if plan.Boundary[v] != cross {
				t.Fatalf("k=%d: boundary[%d] = %v, want %v", k, v, plan.Boundary[v], cross)
			}
		}
	}
}

func TestRelayoutPartitionedVaultAlignment(t *testing.T) {
	g := buildViewTestGraph(t, 200, 13, false)
	vw := g.ViewWith(ViewOpts{Partitions: 4})
	plan := vw.Partitions()
	const region = 1 << 20
	RelayoutPartitioned(g, vw, region)
	// Every partition's vertices land in a region that starts on a
	// region boundary and strictly after the previous partition's.
	var lastRegion uint64
	for q := 0; q < plan.K; q++ {
		lo, hi := plan.Range(q)
		if lo == hi {
			continue
		}
		first := vw.Verts[lo].addr
		reg := first / region
		if q > 0 && reg <= lastRegion {
			t.Fatalf("partition %d region %d not after previous %d", q, reg, lastRegion)
		}
		for _, v := range vw.Verts[lo:hi] {
			if v.addr/region != reg {
				t.Fatalf("partition %d: vertex record at %#x escapes region %d", q, v.addr, reg)
			}
		}
		lastRegion = reg
	}
	// Plan-less views fall back to the contiguous relayout.
	flat := g.View()
	RelayoutPartitioned(g, flat, region)
	for i := 1; i < flat.Len(); i++ {
		if flat.Verts[i].addr <= flat.Verts[i-1].addr {
			t.Fatalf("fallback relayout order broken at %d", i)
		}
	}
}
