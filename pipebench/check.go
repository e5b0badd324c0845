package main

import (
	"fmt"
	"math"

	"github.com/graphbig/graphbig-go/internal/property"
)

// The checks below judge the program's answers from outside it: they read
// only the View's public CSR arrays and the result fields the workloads
// publish into vertex properties. None of them depends on adjacency order,
// so a snapshot whose neighbour lists come out in a different order
// (gen.adjacency_drift) can never fail them.

// checkBFS verifies BFS levels with a level certificate over the out-arcs
// off/nbr: the source is at level 0 and is the only vertex there, no arc
// leaves a reached vertex for an unreached one or skips a level, and every
// other reached vertex has an in-arc from one level up. It returns the
// number of reached vertices.
func checkBFS(off, nbr []int32, level []int32, src int32, witnessed []bool) (int64, error) {
	n := len(off) - 1
	if level[src] != 0 {
		return 0, fmt.Errorf("bfs: source level %d, want 0", level[src])
	}
	clear(witnessed)
	var reached int64
	for u := 0; u < n; u++ {
		lu := level[u]
		if lu < 0 {
			if lu != -1 {
				return 0, fmt.Errorf("bfs: vertex %d has level %d", u, lu)
			}
			continue
		}
		reached++
		for _, v := range nbr[off[u]:off[u+1]] {
			lv := level[v]
			if lv < 0 || lv > lu+1 {
				return 0, fmt.Errorf("bfs: arc %d->%d goes from level %d to %d", u, v, lu, lv)
			}
			if lv == lu+1 {
				witnessed[v] = true
			}
		}
	}
	for v := 0; v < n; v++ {
		switch {
		case level[v] == 0 && int32(v) != src:
			return 0, fmt.Errorf("bfs: vertex %d at level 0 is not the source", v)
		case level[v] > 0 && !witnessed[v]:
			return 0, fmt.Errorf("bfs: vertex %d at level %d has no parent one level up", v, level[v])
		}
	}
	return reached, nil
}

// checkSSSP verifies shortest-path distances: the source is at 0, every
// arc u->v with d[u] finite satisfies d[v] <= d[u]+w, and every other
// reached vertex has an in-arc with d[v] == d[u]+w bitwise (a tight
// predecessor). Unreached vertices hold +Inf. It returns the number of
// reached vertices.
func checkSSSP(off, nbr []int32, wt, dist []float64, src int32, witnessed []bool) (int64, error) {
	n := len(off) - 1
	if dist[src] != 0 {
		return 0, fmt.Errorf("sssp: source distance %v, want 0", dist[src])
	}
	clear(witnessed)
	var reached int64
	for u := 0; u < n; u++ {
		du := dist[u]
		if math.IsInf(du, 1) {
			continue
		}
		if !(du >= 0) {
			return 0, fmt.Errorf("sssp: vertex %d has distance %v", u, du)
		}
		reached++
		lo, hi := off[u], off[u+1]
		for k := lo; k < hi; k++ {
			v := nbr[k]
			via := du + wt[k]
			if !(dist[v] <= via) {
				return 0, fmt.Errorf("sssp: arc %d->%d relaxes %v to %v", u, v, dist[v], via)
			}
			if math.Float64bits(dist[v]) == math.Float64bits(via) {
				witnessed[v] = true
			}
		}
	}
	for v := 0; v < n; v++ {
		if int32(v) != src && !math.IsInf(dist[v], 1) && !witnessed[v] {
			return 0, fmt.Errorf("sssp: vertex %d at %v has no tight in-arc", v, dist[v])
		}
	}
	return reached, nil
}

// checkCC verifies component labels: both endpoints of every arc share a
// label, the labels used are exactly [0, comps), and want — the component
// count an independent union-find finds (ufComponents) — equals comps.
// Together these make every label exactly one component. used is scratch
// of length at least comps.
func checkCC(off, nbr []int32, label []int32, comps, want int, used []bool) error {
	n := len(off) - 1
	if comps > len(used) {
		return fmt.Errorf("cc: %d components reported for %d vertices", comps, n)
	}
	clear(used)
	distinct := 0
	for u := 0; u < n; u++ {
		lu := label[u]
		if lu < 0 || int(lu) >= comps {
			return fmt.Errorf("cc: vertex %d has label %d of %d components", u, lu, comps)
		}
		if !used[lu] {
			used[lu] = true
			distinct++
		}
		for _, v := range nbr[off[u]:off[u+1]] {
			if label[v] != lu {
				return fmt.Errorf("cc: arc %d->%d joins labels %d and %d", u, v, lu, label[v])
			}
		}
	}
	if distinct != comps || comps != want {
		return fmt.Errorf("cc: %d components reported, %d labels used, union-find finds %d", comps, distinct, want)
	}
	return nil
}

// ufComponents counts the weakly connected components of the arcs
// off/nbr with a union-find; parent is scratch of length n.
func ufComponents(off, nbr []int32, parent []int32) int {
	n := len(off) - 1
	for i := range parent[:n] {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	roots := n
	for u := 0; u < n; u++ {
		for _, v := range nbr[off[u]:off[u+1]] {
			if a, b := find(int32(u)), find(v); a != b {
				parent[a] = b
				roots--
			}
		}
	}
	return roots
}

// ledger is the benchmark's own account of the graph's size, kept from
// what AddEdge and DeleteVertex return.
type ledger struct {
	verts, edges int64
}

// checkLedger compares the ledger with the graph's counters and with the
// snapshot taken after the batch. An undirected edge is one logical edge
// and two arcs of the view.
func checkLedger(l ledger, g *property.Graph, vw *property.View) error {
	arcs := l.edges
	if !g.Directed() {
		arcs *= 2
	}
	switch {
	case int64(g.EdgeCount()) != l.edges:
		return fmt.Errorf("ledger: EdgeCount %d, ledger %d", g.EdgeCount(), l.edges)
	case vw.EdgeTotal() != arcs:
		return fmt.Errorf("ledger: EdgeTotal %d, ledger %d arcs", vw.EdgeTotal(), arcs)
	case int64(g.VertexCount()) != l.verts || int64(vw.Len()) != l.verts:
		return fmt.Errorf("ledger: VertexCount %d, view %d, ledger %d", g.VertexCount(), vw.Len(), l.verts)
	}
	return nil
}

// intProps reads a property field holding small integers (levels,
// labels) for every view vertex into dst.
func intProps(vw *property.View, slot int, dst []int32) []int32 {
	dst = dst[:0]
	for _, v := range vw.Verts {
		dst = append(dst, int32(v.Prop(slot)))
	}
	return dst
}

// floatProps reads a float property field for every view vertex into dst.
func floatProps(vw *property.View, slot int, dst []float64) []float64 {
	dst = dst[:0]
	for _, v := range vw.Verts {
		dst = append(dst, v.Prop(slot))
	}
	return dst
}
