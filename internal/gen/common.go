// Package gen synthesizes the five GraphBIG datasets (paper Tables 5 and 7)
// plus auxiliary structures (layered DAGs, R-MAT graphs). The proprietary
// inputs (Twitter crawl, IBM Knowledge Repo, IBM Watson Gene graph) are
// replaced by generators that reproduce the topological signatures the
// paper's analysis depends on; see DESIGN.md §2 for the substitution table.
//
// All generators are deterministic in (size, seed) and independent of the
// worker count. Per-vertex RNG streams are derived from the seed and the
// vertex id, so the emitted edge list is the same for every worker count,
// and Build turns it into the same graph: the same adjacency order, shard
// order and simulated addresses, not only the same edge set.
package gen

import (
	"math"
	"math/rand/v2"
	"slices"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/property"
)

// pack encodes a directed edge (u -> v) as a sortable uint64.
func pack(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// packUndirected canonicalizes so each undirected pair packs identically.
func packUndirected(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return pack(u, v)
}

func unpack(e uint64) (u, v int32) {
	return int32(uint32(e >> 32)), int32(uint32(e))
}

// vrng returns a deterministic per-vertex random stream.
func vrng(seed int64, v int32) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(v)*0x9e3779b97f4a7c15+1))
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// edgeWeight derives a deterministic weight in [1,100] for an edge, so
// repeated generations agree and SPath has non-trivial weights.
func edgeWeight(u, v int32) float64 {
	return float64(1 + mix(pack(u, v))%100)
}

// powerlaw samples a discrete power-law value in [xmin, cap] with exponent
// alpha (>1) by inverse transform on the continuous Pareto distribution.
func powerlaw(r *rand.Rand, xmin, cap int, alpha float64) int {
	if cap <= xmin {
		return xmin
	}
	u := r.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	x := float64(xmin) * math.Pow(u, -1/(alpha-1))
	if x > float64(cap) {
		return cap
	}
	return int(x)
}

// zipfRank maps a uniform sample to a rank in [0,n) with probability
// decaying as roughly rank^-skew (skew in (0,1]; larger = more skewed).
func zipfRank(r *rand.Rand, n int, skew float64) int32 {
	u := r.Float64()
	x := math.Pow(u, 1/(1-skew*0.999)) // concentrates mass near rank 0
	i := int32(x * float64(n))
	if i >= int32(n) {
		i = int32(n) - 1
	}
	return i
}

// BuildOpts configures edge-list materialization into a property graph.
type BuildOpts struct {
	Directed bool
	TrackIn  bool
	Schema   *property.Schema
	Workers  int
}

// Build materializes v vertices (IDs 0..v-1) and the packed edge list into
// a property graph. The list is sorted in place and de-duplicated first;
// self loops and edges with an endpoint outside [0,v) are dropped. Edge
// weights are derived deterministically from endpoints. The graph is
// built in bulk (property.Bulk.Build). For every worker count it equals
// the graph built by adding the vertices in ID order, then the edges in
// sorted order, through the primitives.
func Build(v int, edges []uint64, o BuildOpts) *property.Graph {
	edges = sortEdges(v, edges, o.Workers)
	b := &property.Bulk{
		IDs: make([]property.VertexID, v),
		Src: make([]int32, len(edges)),
		Dst: make([]int32, len(edges)),
		W:   make([]float64, len(edges)),
	}
	for i := range b.IDs {
		b.IDs[i] = property.VertexID(i)
	}
	concurrent.ParallelRange(len(edges), o.Workers, func(s, e int) {
		for i := s; i < e; i++ {
			a, c := unpack(edges[i])
			b.Src[i], b.Dst[i], b.W[i] = a, c, edgeWeight(a, c)
		}
	})
	g, err := b.Build(property.Options{
		Directed:     o.Directed,
		TrackInEdges: o.TrackIn,
		Schema:       o.Schema,
		Hint:         v,
	}, o.Workers)
	if err != nil {
		panic(err) // unreachable: every endpoint was checked above
	}
	return g
}

// sortEdges sorts the packed edges in place, dropping duplicates, self
// loops and edges with an endpoint outside [0,v), and returns the
// survivors. It is a counting sort on the source vertex followed by a
// sort of each source's bucket, the buckets split across workers.
func sortEdges(v int, edges []uint64, workers int) []uint64 {
	keep := func(e uint64) bool {
		a, b := unpack(e)
		return a != b && a >= 0 && b >= 0 && int(a) < v && int(b) < v
	}
	off := make([]int, v+1)
	for _, e := range edges {
		if keep(e) {
			off[e>>32+1]++
		}
	}
	for i := 1; i <= v; i++ {
		off[i] += off[i-1]
	}
	bySrc := make([]uint64, off[v])
	next := make([]int, v)
	copy(next, off)
	for _, e := range edges {
		if keep(e) {
			bySrc[next[e>>32]] = e
			next[e>>32]++
		}
	}
	concurrent.ParallelRange(v, workers, func(s, e int) {
		for a := s; a < e; a++ {
			slices.Sort(bySrc[off[a]:off[a+1]])
		}
	})
	out := edges[:0]
	for i, e := range bySrc {
		if i == 0 || e != bySrc[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// perVertexEdges runs emit for every vertex with its deterministic RNG and
// concatenates the produced packed edges. emit must only append.
func perVertexEdges(v int, seed int64, workers int, perVertexCap int, emit func(r *rand.Rand, u int32, out []uint64) []uint64) []uint64 {
	workers = concurrent.Workers(workers)
	if workers > v {
		workers = v
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (v + workers - 1) / workers
	parts := make([][]uint64, workers)
	concurrent.ParallelRange(v, workers, func(s, e int) {
		buf := make([]uint64, 0, (e-s)*perVertexCap/2+16)
		for i := s; i < e; i++ {
			buf = emit(vrng(seed, int32(i)), int32(i), buf)
		}
		parts[s/chunk] = buf // chunked ranges start at multiples of chunk
	})
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	all := make([]uint64, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}
