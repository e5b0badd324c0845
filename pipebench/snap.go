package main

import (
	"bufio"
	"cmp"
	"hash/fnv"
	"io"
	"slices"
	"strconv"

	"github.com/graphbig/graphbig-go/internal/property"
)

// arc is one directed arc of a snapshot, by vertex ID.
type arc struct {
	src, dst property.VertexID
	w        float64
}

// sortedArcs lists every arc of the view ordered by (src, dst, weight).
// The order is a function of the graph's arc set alone, so it does not
// depend on adjacency order or on how many workers built the graph.
func sortedArcs(vw *property.View) []arc {
	arcs := make([]arc, 0, vw.EdgeTotal())
	for i, v := range vw.Verts {
		adj := vw.Adj(int32(i))
		w := vw.AdjW(int32(i))
		for k, j := range adj {
			arcs = append(arcs, arc{v.ID, vw.Verts[j].ID, w[k]})
		}
	}
	slices.SortFunc(arcs, func(a, b arc) int {
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		if c := cmp.Compare(a.dst, b.dst); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	})
	return arcs
}

// writeSNAP writes the view as a SNAP edge list, one sorted `src dst w`
// line per arc, with weights in shortest round-trip form. The bytes are a
// pure function of the arc set.
func writeSNAP(out io.Writer, vw *property.View) error {
	bw := bufio.NewWriterSize(out, 1<<16)
	var line []byte
	for _, a := range sortedArcs(vw) {
		line = strconv.AppendUint(line[:0], uint64(a.src), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(a.dst), 10)
		line = append(line, ' ')
		line = strconv.AppendFloat(line, a.w, 'g', -1, 64)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// packedEdges returns the view's undirected edges in gen.Build's packed
// form (smaller ID in the high word), one entry per arc, which Build
// de-duplicates. It also returns the vertex count Build needs: one past
// the largest ID.
func packedEdges(vw *property.View) ([]uint64, int) {
	edges := make([]uint64, 0, vw.EdgeTotal())
	maxID := property.VertexID(0)
	for i, v := range vw.Verts {
		maxID = max(maxID, v.ID)
		for _, j := range vw.Adj(int32(i)) {
			a, b := uint64(v.ID), uint64(vw.Verts[j].ID)
			if a > b {
				a, b = b, a
			}
			edges = append(edges, a<<32|b)
		}
	}
	return edges, int(maxID) + 1
}

// adjacencyHashes fingerprints each vertex's neighbour list in adjacency
// order, keyed by position in the ID-sorted view.
func adjacencyHashes(vw *property.View) (ids []property.VertexID, sums []uint64) {
	h := fnv.New64a()
	var buf [8]byte
	for i, v := range vw.Verts {
		h.Reset()
		for _, j := range vw.Adj(int32(i)) {
			id := uint64(vw.Verts[j].ID)
			for b := range buf {
				buf[b] = byte(id >> (8 * b))
			}
			h.Write(buf[:])
		}
		ids = append(ids, v.ID)
		sums = append(sums, h.Sum64())
	}
	return ids, sums
}

// drift counts the vertices whose neighbour order differs between two
// snapshots of the same vertex set; -1 means the vertex sets differ.
func drift(idsA []property.VertexID, a []uint64, idsB []property.VertexID, b []uint64) int {
	if !slices.Equal(idsA, idsB) {
		return -1
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
