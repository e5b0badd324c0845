package property

import (
	"math/rand"
	"testing"
)

func benchGraph(n int) *Graph {
	g := New(Options{Hint: n})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i))
	}
	for i := 0; i < n; i++ {
		g.AddEdge(VertexID(i), VertexID((i+1)%n), 1)
		g.AddEdge(VertexID(i), VertexID((i*7+3)%n), 1)
	}
	return g
}

func BenchmarkAddVertex(b *testing.B) {
	g := New(Options{Hint: b.N})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.AddVertex(VertexID(i))
	}
}

func BenchmarkFindVertex(b *testing.B) {
	g := benchGraph(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.FindVertex(VertexID(i&0xffff)) == nil {
			b.Fatal("missing vertex")
		}
	}
}

func BenchmarkAddEdge(b *testing.B) {
	n := 1 << 14
	g := New(Options{Hint: n})
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddEdge(VertexID(i&(n-1)), VertexID((i*31+7)&(n-1)), 1)
	}
}

func BenchmarkNeighbors(b *testing.B) {
	g := benchGraph(1 << 14)
	vw := g.View()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		v := vw.Verts[i&(len(vw.Verts)-1)]
		g.Neighbors(v, func(_ int, e *Edge) bool { sum++; return true })
	}
	_ = sum
}

func BenchmarkView(b *testing.B) {
	g := benchGraph(1 << 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.View()
	}
}

// roadGraph returns a road-shaped undirected graph of side*side vertices:
// a grid in which each vertex links to its right and lower neighbours
// with probability 0.8, so no degree exceeds 4, and every 997th vertex
// deleted, as an update batch leaves it. Vertex i gets ID i*spread:
// spread 1 keeps the IDs dense, spread 8 puts the largest ID past
// denseIDLimit so ViewWith sorts and builds the map.
func roadGraph(b *testing.B, side int, spread VertexID) *Graph {
	b.Helper()
	n := side * side
	rng := rand.New(rand.NewSource(5))
	bk := Bulk{IDs: make([]VertexID, n)}
	for i := range bk.IDs {
		bk.IDs[i] = VertexID(i) * spread
	}
	link := func(u, v int) {
		if rng.Intn(5) > 0 {
			bk.Src = append(bk.Src, Index32(u))
			bk.Dst = append(bk.Dst, Index32(v))
			bk.W = append(bk.W, float64(rng.Intn(9)+1))
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				link(r*side+c, r*side+c+1)
			}
			if r+1 < side {
				link(r*side+c, (r+1)*side+c)
			}
		}
	}
	g, err := bk.Build(Options{Hint: n}, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i += 997 {
		if _, err := g.DeleteVertex(bk.IDs[i]); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

func benchViewWith(b *testing.B, spread VertexID, dense bool) {
	g := roadGraph(b, 512, spread)
	if (g.View().lut != nil) != dense {
		b.Fatalf("spread %d: dense path = %v, want %v", spread, !dense, dense)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.ViewWith(ViewOpts{})
	}
}

// BenchmarkViewWithDense snapshots a 2^18-vertex road graph with dense
// IDs: vertices placed by ID, indexed by table.
func BenchmarkViewWithDense(b *testing.B) { benchViewWith(b, 1, true) }

// BenchmarkViewWithSparse snapshots the same graph with IDs spread 8
// apart: vertices sorted, indexed by map.
func BenchmarkViewWithSparse(b *testing.B) { benchViewWith(b, 8, false) }

func BenchmarkClone(b *testing.B) {
	g := benchGraph(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Clone(g)
	}
}
