package property

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/graphbig/graphbig-go/internal/concurrent"
)

// Bulk is a whole graph given as one construction stream: the vertices
// in creation order and the arcs in insertion order, with arc endpoints
// as indexes into IDs. Build turns it into a Graph in bulk; Replay feeds
// it through the primitives and defines what Build must produce.
type Bulk struct {
	// IDs lists the vertex IDs in creation order. They must be distinct.
	IDs []VertexID
	// At, when non-nil, holds one entry per vertex: the number of arcs
	// inserted before the vertex is created. It must be non-decreasing;
	// a loader that creates vertices on first mention records the arc
	// count at that moment. nil creates every vertex before any arc.
	At []int
	// Arc k runs from IDs[Src[k]] to IDs[Dst[k]] with weight W[k].
	Src, Dst []int32
	W        []float64
}

func (b *Bulk) at(i int) int {
	if b.At == nil {
		return 0
	}
	return b.At[i]
}

func (b *Bulk) check() error {
	if len(b.Dst) != len(b.Src) || len(b.W) != len(b.Src) {
		return fmt.Errorf("property: bulk arcs: %d sources, %d destinations, %d weights",
			len(b.Src), len(b.Dst), len(b.W))
	}
	if b.At != nil && len(b.At) != len(b.IDs) {
		return fmt.Errorf("property: bulk At has %d entries for %d vertices", len(b.At), len(b.IDs))
	}
	return nil
}

// arcErr reports an arc whose endpoint is not a vertex created before it.
func arcErr(k int, s, d int32) error {
	return fmt.Errorf("property: bulk arc %d (%d -> %d) names a vertex not yet created", k, s, d)
}

func dupErr(id VertexID) error {
	return fmt.Errorf("property: bulk vertex %d listed twice", id)
}

// Replay builds the graph through the primitives: before arc k it calls
// AddVertex for every vertex whose At is at most k, then AddEdge for arc
// k; vertices left over are added after the last arc. Graphs with a
// Tracker are built this way, since their event stream is the
// primitives', and Build is tested against it.
func (b *Bulk) Replay(opt Options) (*Graph, error) {
	if err := b.check(); err != nil {
		return nil, err
	}
	g := New(opt)
	next := 0
	create := func(k int) error {
		for ; next < len(b.IDs) && b.at(next) <= k; next++ {
			if _, added := g.AddVertex(b.IDs[next]); !added {
				return dupErr(b.IDs[next])
			}
		}
		return nil
	}
	for k, s := range b.Src {
		if err := create(k); err != nil {
			return nil, err
		}
		d := b.Dst[k]
		if s < 0 || int(s) >= next || d < 0 || int(d) >= next {
			return nil, arcErr(k, s, d)
		}
		if err := g.AddEdge(b.IDs[s], b.IDs[d], b.W[k]); err != nil {
			return nil, err
		}
	}
	if err := create(math.MaxInt); err != nil {
		return nil, err
	}
	return g, nil
}

// Build constructs in bulk the graph Replay would build from b:
// reflect.DeepEqual to it for every worker count, which covers the order
// of every Out and In list, each shard's vertex order, and every
// simulated address, chunk capacity and index-table size. Only Go slice
// capacities differ: each adjacency list gets its simulated chunk
// capacity as headroom, so later AddEdge calls append in place as often
// as they would after Replay.
//
// The steps: one serial pass over the stream creates the vertices (from
// one slab) and replays every allocation the primitives would draw from
// the arena — vertex records, index-table growth, and the chunk growth a
// list undergoes at lengths 0, 4, 8, 16, ... — while counting degrees.
// Then each worker owns a contiguous vertex range, balanced by record
// count, and allocates the slabs for its vertices' lists; it scans the
// arc stream and writes its vertices' records in stream order, the order
// the primitives append them in. With a Tracker, Build is Replay.
func (b *Bulk) Build(opt Options, workers int) (*Graph, error) {
	if opt.Tracker != nil {
		return b.Replay(opt)
	}
	if err := b.check(); err != nil {
		return nil, err
	}
	n := len(b.IDs)
	g := newGraph(opt, n)
	np := g.sch.cap
	vs := make([]Vertex, n)
	props := make([]float64, n*np)
	for i, id := range b.IDs {
		vs[i].ID = id
		vs[i].props = props[i*np : (i+1)*np : (i+1)*np]
	}
	outN := make([]int32, n)
	var inN []int32
	if g.directed && g.trackIn {
		inN = make([]int32, n)
	}
	next := 0
	create := func(k int) error {
		for ; next < n && b.at(next) <= k; next++ {
			v := &vs[next]
			sh := g.shardOf(v.ID)
			if g.insert(sh, v); uint64(len(sh.index)) != sh.idxCount {
				return dupErr(v.ID) // the ID was already indexed
			}
		}
		return nil
	}
	for k, s := range b.Src {
		if err := create(k); err != nil {
			return nil, err
		}
		d := b.Dst[k]
		if s < 0 || int(s) >= next || d < 0 || int(d) >= next {
			return nil, arcErr(k, s, d)
		}
		if chunkFull(outN[s]) {
			g.growEdges(&vs[s], nil)
		}
		outN[s]++
		if !g.directed {
			if chunkFull(outN[d]) {
				g.growEdges(&vs[d], nil)
			}
			outN[d]++
		} else if inN != nil {
			if chunkFull(inN[d]) {
				g.growIn(&vs[d], nil)
			}
			inN[d]++
		}
	}
	if err := create(math.MaxInt); err != nil {
		return nil, err
	}

	b.fill(vs, outN, inN, !g.directed, concurrent.Workers(workers))
	g.nVerts.Store(int64(n))
	g.nEdges.Store(int64(len(b.Src)))
	return g, nil
}

// chunkFull reports whether a list of length n fills its simulated chunk,
// so that appending grows it: chunks hold 0, 4, 8, 16, ... records.
func chunkFull(n int32) bool {
	return n == 0 || n >= 4 && n&(n-1) == 0
}

// fill writes every adjacency record. Worker w owns the vertices
// [vb[w], vb[w+1]), balanced by record count, and allocates and fills
// one slab per record kind for them; each list then takes its window of
// its worker's slab, with its simulated chunk capacity as Go capacity.
func (b *Bulk) fill(vs []Vertex, outN, inN []int32, undirected bool, workers int) {
	n := len(vs)
	outOff := make([]int, n+1)
	inOff := make([]int, n+1)
	for i := range vs {
		outOff[i+1] = outOff[i] + vs[i].edgeCap
		inOff[i+1] = inOff[i] + vs[i].inCap
	}
	total := outOff[n] + inOff[n]
	parts := max(1, min(workers, total/4096)) // small graphs fill on one goroutine
	vb := make([]int, parts+1)
	for w := 1; w < parts; w++ {
		// The first vertex whose records start at or past w/parts of them.
		vb[w] = sort.Search(n, func(x int) bool { return outOff[x]+inOff[x] >= w*total/parts })
	}
	vb[parts] = n
	outs := make([][]Edge, parts)
	ins := make([][]VertexID, parts)
	var wg sync.WaitGroup
	for w := 0; w < parts; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			out := make([]Edge, outOff[hi]-outOff[lo])
			var in []VertexID
			if inN != nil {
				in = make([]VertexID, inOff[hi]-inOff[lo])
			}
			b.fillRange(Index32(lo), Index32(hi), out, outOff[lo:hi], in, inOff[lo:hi], undirected)
			outs[w], ins[w] = out, in
		}(w, vb[w], vb[w+1])
	}
	wg.Wait()
	for w := range parts {
		for x := vb[w]; x < vb[w+1]; x++ {
			v := &vs[x]
			// An empty list stays nil, as after Replay.
			if o := outOff[x] - outOff[vb[w]]; outN[x] > 0 {
				v.Out = outs[w][o : o+int(outN[x]) : o+v.edgeCap]
			}
			if o := inOff[x] - inOff[vb[w]]; inN != nil && inN[x] > 0 {
				v.In = ins[w][o : o+int(inN[x]) : o+v.inCap]
			}
		}
	}
}

// fillRange writes the records of vertices [lo, hi) into their windows:
// out and in start at the records of vertex lo, and outOff/inOff hold
// the absolute slab offsets of each vertex in the range.
func (b *Bulk) fillRange(lo, hi int32, out []Edge, outOff []int, in []VertexID, inOff []int, undirected bool) {
	oc := make([]int, hi-lo)
	for i := range oc {
		oc[i] = outOff[i] - outOff[0]
	}
	var ic []int
	if in != nil {
		ic = make([]int, hi-lo)
		for i := range ic {
			ic[i] = inOff[i] - inOff[0]
		}
	}
	ids, dst, w := b.IDs, b.Dst, b.W
	for k, s := range b.Src {
		d := dst[k]
		if s >= lo && s < hi {
			c := oc[s-lo]
			out[c] = Edge{To: ids[d], Weight: w[k]}
			oc[s-lo] = c + 1
		}
		if d < lo || d >= hi {
			continue
		}
		if undirected {
			c := oc[d-lo]
			out[c] = Edge{To: ids[s], Weight: w[k]}
			oc[d-lo] = c + 1
		} else if ic != nil {
			c := ic[d-lo]
			in[c] = ids[s]
			ic[d-lo] = c + 1
		}
	}
}
