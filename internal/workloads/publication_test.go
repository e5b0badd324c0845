package workloads

import (
	"math"
	"testing"

	"github.com/graphbig/graphbig-go/internal/property"
)

// Native BFS, CComp and SPathDelta publish their output with one write per
// vertex after the kernel and no reset before it. These tests pin what that
// must still guarantee: after a run, every vertex's property holds this
// run's answer (-1 / +Inf when unreached), never a value an earlier run or
// earlier code left behind.

// pubStale is the value the tests plant in every property before the first
// run; no workload ever produces it.
const pubStale = 12345.0

// twoComponents builds a weighted 40x40 grid (IDs 0..1599), a separate
// weighted 30-vertex path with one chord (IDs 5000..5029) and an isolated
// vertex (ID 9000). Weights are small integers, so every path sum is exact
// and any correct shortest-path kernel produces the same bits.
func twoComponents() *property.Graph {
	g := property.New(property.Options{})
	const side = 40
	for i := 0; i < side*side; i++ {
		g.AddVertex(property.VertexID(i))
	}
	edge := func(a, b int, w float64) {
		if err := g.AddEdge(property.VertexID(a), property.VertexID(b), w); err != nil {
			panic(err)
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			if c+1 < side {
				edge(v, v+1, float64(1+(v%3)))
			}
			if r+1 < side {
				edge(v, v+side, float64(1+(v%5)))
			}
		}
	}
	for i := 0; i < 30; i++ {
		g.AddVertex(property.VertexID(5000 + i))
	}
	for i := 0; i+1 < 30; i++ {
		edge(5000+i, 5001+i, float64(1+i%4))
	}
	edge(5003, 5020, 2)
	g.AddVertex(9000)
	return g
}

// refLevels and refDists are the oracles: a plain queue BFS and a
// Bellman-Ford over the view's resolved adjacency.
func refLevels(vw *property.View, src int32) []float64 {
	lvl := make([]float64, vw.Len())
	for i := range lvl {
		lvl[i] = -1
	}
	lvl[src] = 0
	q := []int32{src}
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		for _, v := range vw.Adj(u) {
			if lvl[v] < 0 {
				lvl[v] = lvl[u] + 1
				q = append(q, v)
			}
		}
	}
	return lvl
}

func refDists(vw *property.View, src int32) []float64 {
	d := make([]float64, vw.Len())
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[src] = 0
	for changed := true; changed; {
		changed = false
		for u := range d {
			adj := vw.Adj(int32(u))
			wts := vw.AdjW(int32(u))
			for j, v := range adj {
				if nd := d[u] + wts[j]; nd < d[v] {
					d[v] = nd
					changed = true
				}
			}
		}
	}
	return d
}

// refLabels numbers components in order of their lowest dense index, as
// CComp does.
func refLabels(vw *property.View) []float64 {
	lbl := make([]float64, vw.Len())
	for i := range lbl {
		lbl[i] = -1
	}
	next := 0.0
	for s := range lbl {
		if lbl[s] >= 0 {
			continue
		}
		for v, l := range refLevels(vw, int32(s)) {
			if l >= 0 {
				lbl[v] = next
			}
		}
		next++
	}
	return lbl
}

func checkPublished(t *testing.T, what string, vw *property.View, slot int, want []float64) {
	t.Helper()
	for i, v := range vw.Verts {
		if got := v.Prop(slot); got != want[i] && !(math.IsInf(got, 1) && math.IsInf(want[i], 1)) {
			t.Fatalf("%s: vertex %d reads %v, want %v", what, v.ID, got, want[i])
		}
	}
}

func TestNativePublicationOverwritesEveryVertex(t *testing.T) {
	for _, k := range []int{0, 2} {
		g := twoComponents()
		vw := g.View()
		if k > 0 {
			vw = g.ViewWith(property.ViewOpts{Partitions: k})
		}
		fields := map[string]int{}
		for _, f := range []string{BFSLevelField, SPathDistField, CCompField} {
			fields[f] = g.EnsureField(f)
			for _, v := range vw.Verts {
				v.SetPropRaw(fields[f], pubStale)
			}
		}
		name := "flat"
		if k > 0 {
			name = "partitioned"
		}
		opt := Options{View: vw, Workers: 4}

		// Grid first, then the path: the second run must turn every grid
		// level and distance from the first run back into -1 / +Inf.
		for _, src := range []property.VertexID{0, 5000, 0} {
			si := vw.IndexOf(src)
			opt.Source = src
			if _, err := BFS(g, opt); err != nil {
				t.Fatal(err)
			}
			checkPublished(t, name+" BFS", vw, fields[BFSLevelField], refLevels(vw, si))
			if _, err := SPathDelta(g, opt); err != nil {
				t.Fatal(err)
			}
			checkPublished(t, name+" SPathDelta", vw, fields[SPathDistField], refDists(vw, si))
		}

		labels := refLabels(vw)
		for run := 0; run < 2; run++ {
			if _, err := CComp(g, opt); err != nil {
				t.Fatal(err)
			}
			checkPublished(t, name+" CComp", vw, fields[CCompField], labels)
			for _, v := range vw.Verts {
				v.SetPropRaw(fields[CCompField], pubStale)
			}
		}
	}
}
