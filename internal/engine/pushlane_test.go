package engine

import (
	"sync/atomic"
	"testing"

	"github.com/graphbig/graphbig-go/internal/gen"
	"github.com/graphbig/graphbig-go/internal/property"
)

// Levels and stats must not depend on the worker count: the per-worker
// queue buffers only reorder the next frontier, never change its set. The
// road view runs hundreds of multi-chunk push rounds; the LDBC view mixes
// push and pull rounds.
func TestTraverseDistIdenticalAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *property.Graph
	}{
		{"ca-road", gen.Road(20000, 3, 1)},
		{"ldbc", gen.LDBC(4000, 5, 1)},
	} {
		vw := tc.g.View()
		for _, noPull := range []bool{true, false} {
			var ref []int32
			var refSt Stats
			for _, workers := range []int{1, 2, 8} {
				e := New(tc.g, vw, workers)
				dist := newDist(e.N())
				dist[0] = 0
				st := e.Traverse(&Spec{Dist: dist, NoPull: noPull}, 0)
				if ref == nil {
					ref, refSt = dist, st
					if st.Reached <= pushBlock {
						t.Fatalf("%s: reached only %d vertices; too small to fill a flush block", tc.name, st.Reached)
					}
					continue
				}
				if st != refSt {
					t.Errorf("%s noPull=%v workers=%d: stats %+v, want %+v", tc.name, noPull, workers, st, refSt)
				}
				for i := range dist {
					if dist[i] != ref[i] {
						t.Fatalf("%s noPull=%v workers=%d: dist[%d] = %d, want %d", tc.name, noPull, workers, i, dist[i], ref[i])
					}
				}
			}
		}
	}
}

// broom builds a root joined to hubs 1..hubs; every hub has spokes leaves
// and hub 1 has bigSpokes more, and every leaf has one pendant tail. The
// hub round's frontier spans two push chunks, and the chunk holding hub 1
// claims more than one flush block of leaves, so the tails are reached
// only if every flushed and every remaining buffered claim made it into
// the next frontier.
func broom(hubs, spokes, bigSpokes int) *property.Graph {
	g := property.New(property.Options{})
	next := 0
	vertex := func() int {
		g.AddVertex(property.VertexID(next))
		next++
		return next - 1
	}
	edge := func(a, b int) {
		if err := g.AddEdge(property.VertexID(a), property.VertexID(b), 1); err != nil {
			panic(err)
		}
	}
	root := vertex()
	for h := 0; h < hubs; h++ {
		hub := vertex()
		edge(root, hub)
		n := spokes
		if h == 0 {
			n += bigSpokes
		}
		for s := 0; s < n; s++ {
			leaf := vertex()
			edge(hub, leaf)
			edge(leaf, vertex())
		}
	}
	return g
}

func TestTraverseVisitOncePerClaimAcrossFlushBlocks(t *testing.T) {
	const hubs, spokes, bigSpokes = 100, 12, 1500
	g := broom(hubs, spokes, bigSpokes)
	vw := g.View()
	if hubs <= pushGrain || bigSpokes <= pushBlock {
		t.Fatal("broom too small to span two chunks and one flush block")
	}
	leaves := hubs*spokes + bigSpokes
	for _, workers := range []int{1, 2, 8} {
		e := New(g, vw, workers)
		// Two traversals on one engine: the lanes are reused, and a
		// tally left over from the first call would skew the second.
		for call := 0; call < 2; call++ {
			dist := newDist(e.N())
			labels := newDist(e.N())
			visits := make([]atomic.Int32, e.N())
			dist[0] = 0
			labels[0] = 7
			st := e.Traverse(&Spec{
				Dist:   dist,
				Label:  7,
				Labels: labels,
				NoPull: true,
				Visit: func(v, round int32) {
					if dist[v] != round {
						t.Errorf("Visit(%d, %d) but dist is %d", v, round, dist[v])
					}
					visits[v].Add(1)
				},
			}, 0)
			if want := int64(e.N()); st.Reached != want || st.Depth != 3 {
				t.Fatalf("workers=%d call=%d: stats %+v, want Reached=%d Depth=3", workers, call, st, want)
			}
			perLevel := make([]int, 4)
			for v := range dist {
				if dist[v] < 0 {
					t.Fatalf("workers=%d call=%d: vertex %d unreached", workers, call, v)
				}
				perLevel[dist[v]]++
				if labels[v] != 7 {
					t.Fatalf("workers=%d call=%d: vertex %d label %d, want 7", workers, call, v, labels[v])
				}
				want := int32(1)
				if v == 0 {
					want = 0 // sources get no Visit call
				}
				if got := visits[v].Load(); got != want {
					t.Fatalf("workers=%d call=%d: vertex %d visited %d times, want %d", workers, call, v, got, want)
				}
			}
			if perLevel[1] != hubs || perLevel[2] != leaves || perLevel[3] != leaves {
				t.Errorf("workers=%d call=%d: per-level counts %v, want [1 %d %d %d]", workers, call, perLevel, hubs, leaves, leaves)
			}
		}
	}
}
