package property

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/partition"
)

// View is a stable snapshot of the live vertices, giving algorithms dense
// integer indices. Creating a view also publishes each vertex's index
// through the reserved "sys.index" property so algorithms can go from a
// framework vertex to its index with a property read.
//
// A view is additionally index-resolved: at snapshot time the adjacency of
// every live vertex is materialized into flat CSR-like arrays over the
// dense indices (NbrOff/Nbr/NbrW, plus reverse arrays for directed
// graphs). Native hot loops iterate these dense int32 arrays with zero
// per-edge FindVertex hash lookups — the pointer-chasing overhead the
// paper attributes to dynamic property-graph frameworks (§4.1) —
// while instrumented runs keep using the framework primitives so the
// tracker event stream is unchanged. Edges whose target is dead are
// dropped during resolution, mirroring the nil-check every workload
// performs after FindVertex.
//
// The default View() numbering is ID-sorted. ViewWith can compose a
// locality permutation (internal/order) into the dense space: Verts and
// every CSR array are permuted together, and IndexOf/sys.index follow, so
// workloads run unchanged and per-VertexID results are identical — only
// the memory layout the engine streams differs (DESIGN.md §8).
type View struct {
	Verts []*Vertex

	// lut maps a VertexID to its dense index, -1 for IDs not in the view,
	// whenever the live IDs are dense (maxID < denseIDLimit(n)); IDs at or
	// past len(lut) are absent. pos is the map that replaces it on sparse
	// IDs. Exactly one of the two is non-nil.
	lut []int32
	pos map[VertexID]int32

	// NbrOff has one entry per vertex plus a terminator: the out-neighbors
	// of dense index i occupy Nbr[NbrOff[i]:NbrOff[i+1]], in adjacency-list
	// order, with parallel edge weights in NbrW.
	NbrOff []int32
	Nbr    []int32
	NbrW   []float64

	// InOff/InNbr are the reverse (in-neighbor) arrays used by pull-phase
	// traversal. On undirected graphs they alias the forward arrays; on
	// directed graphs they are built from the out-edges regardless of
	// Options.TrackInEdges. In-neighbors of each vertex appear in
	// ascending dense-index order.
	InOff []int32
	InNbr []int32

	// parts is the partition plan recorded by ViewOpts.Partitions (nil
	// when partitioned execution was not requested). It is computed over
	// the final index space — after any ordering permutation — so each
	// partition's vertices are contiguous.
	parts *partition.Plan
}

// SysIndexField is the schema field that carries a vertex's View index.
const SysIndexField = "sys.index"

// OrderFunc computes a vertex-reordering permutation from the ID-sorted
// snapshot's resolved CSR: it receives the vertex count and the flat
// NbrOff/Nbr arrays and returns perm with perm[newIndex] = oldIndex.
// The permutation must be a bijection on [0,n); ViewWith panics otherwise.
// internal/order provides the standard strategies.
type OrderFunc func(n int, nbrOff, nbr []int32) []int32

// ViewOpts configures ViewWith.
type ViewOpts struct {
	// Workers bounds construction parallelism (<= 0 selects GOMAXPROCS).
	// Output is identical for every worker count; instrumented graphs pin
	// to 1 so tracked runs stay deterministic.
	Workers int
	// Order, when non-nil, is composed into the dense index space after
	// resolution. nil keeps the ID-sorted baseline numbering.
	Order OrderFunc
	// Partitions, when > 0, records a k-way contiguous partition plan
	// (internal/partition) in the view, computed over the final — i.e.
	// post-Order — index space. The plan is what switches the engine
	// into partitioned subgraph-centric execution (DESIGN.md §10);
	// adjacency arrays and per-vertex results are unaffected.
	Partitions int
	// PartitionMode selects the balance target when Partitions > 0
	// (edge-balanced by default).
	PartitionMode partition.Mode
}

// View snapshots the graph and index-resolves its adjacency with default
// options: ID-sorted numbering, parallel construction. It is an O(V + E)
// operation on dense IDs and O(V log V + E) on sparse ones.
func (g *Graph) View() *View { return g.ViewWith(ViewOpts{}) }

// ViewWith snapshots the graph with explicit construction options. The
// resulting view's contents are deterministic — a function of the graph
// state and opt.Order only, never of opt.Workers or goroutine schedule.
func (g *Graph) ViewWith(opt ViewOpts) *View {
	workers := concurrent.Workers(opt.Workers)
	if g.trk != nil {
		workers = 1
	}
	parts, maxID := g.gather(workers)
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	idxSlot := g.EnsureField(SysIndexField)
	vw := &View{}
	if uint64(maxID) < denseIDLimit(n) {
		vw.Verts, vw.lut = placeByID(parts, maxID, workers)
	} else {
		vs := make([]*Vertex, 0, n)
		for _, p := range parts {
			vs = append(vs, p...)
		}
		sortVertsByID(vs, workers)
		vw.Verts, vw.pos = vs, posMap(vs)
	}
	vw.resolve(g.directed, workers)
	if opt.Order != nil {
		vw.applyOrder(opt.Order(n, vw.NbrOff, vw.Nbr), g.directed, workers)
	}
	if opt.Partitions > 0 {
		vw.parts = partition.New(n, vw.NbrOff, vw.Nbr, vw.InOff, vw.InNbr,
			opt.Partitions, opt.PartitionMode)
	}
	g.publishIndex(vw, idxSlot, workers)
	return vw
}

// ViewReference is the seed serial implementation (shard-order gather,
// single-threaded sort, map-probed resolution), retained as the honest
// wall-clock baseline for the view-construction benchmarks and as a
// differential-testing oracle for the parallel path. Its output is
// identical to View().
func (g *Graph) ViewReference() *View {
	n := g.VertexCount()
	vs := make([]*Vertex, 0, n)
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		for _, v := range sh.verts {
			if !v.dead {
				vs = append(vs, v)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	idxSlot := g.EnsureField(SysIndexField)
	vw := &View{Verts: vs, pos: posMap(vs)}
	vw.resolveReference(g.directed)
	g.publishIndex(vw, idxSlot, 1)
	return vw
}

// gather snapshots the live vertices of every shard under its read lock
// and returns the largest live ID (0 when there is none). Shard-parallel:
// each worker drains a contiguous range of shards into its own part, so
// the parts concatenated in worker order match the serial shard-order
// walk exactly.
func (g *Graph) gather(workers int) ([][]*Vertex, VertexID) {
	bounds := concurrent.ChunkBounds(len(g.shards), workers)
	parts := make([][]*Vertex, len(bounds)-1)
	maxIDs := make([]VertexID, len(parts))
	per := 8
	if k := len(parts); k > 0 {
		per += g.VertexCount() / k
	}
	concurrent.ParallelItems(len(parts), workers, 1, func(w int) {
		part, m := make([]*Vertex, 0, per), VertexID(0)
		for i := bounds[w]; i < bounds[w+1]; i++ {
			part, m = g.gatherShard(i, part, m)
		}
		parts[w], maxIDs[w] = part, m
	})
	return parts, slices.Max(maxIDs)
}

// gatherShard appends shard i's live vertices to dst and folds their IDs
// into the running maximum m.
func (g *Graph) gatherShard(i int, dst []*Vertex, m VertexID) ([]*Vertex, VertexID) {
	sh := &g.shards[i]
	sh.mu.RLock()
	for _, v := range sh.verts {
		if !v.dead {
			dst = append(dst, v)
			m = max(m, v.ID)
		}
	}
	sh.mu.RUnlock()
	return dst, m
}

// sortVertsByID sorts the snapshot by VertexID. Above a size floor it
// sorts contiguous chunks in parallel and merges pairwise bottom-up;
// below it (or single-threaded) it makes one slices.SortFunc call. IDs
// are unique, so every merge is stable-equivalent and the result matches
// the serial sort exactly.
func sortVertsByID(vs []*Vertex, workers int) {
	n := len(vs)
	if workers <= 1 || n < 8192 {
		slices.SortFunc(vs, byID)
		return
	}
	bounds := concurrent.ChunkBounds(n, workers)
	parts := len(bounds) - 1
	var wg sync.WaitGroup
	for w := 0; w < parts; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			slices.SortFunc(vs[lo:hi], byID)
		}(bounds[w], bounds[w+1])
	}
	wg.Wait()
	// Bottom-up pairwise merges, ping-ponging between vs and a scratch
	// buffer. runs holds the current sorted-run boundaries.
	src, dst := vs, make([]*Vertex, n)
	runs := bounds
	for len(runs) > 2 {
		next := make([]int, 0, len(runs)/2+2)
		next = append(next, 0)
		var mg sync.WaitGroup
		for r := 0; r+2 < len(runs); r += 2 {
			mg.Add(1)
			go func(lo, mid, hi int) {
				defer mg.Done()
				mergeVerts(dst[lo:hi], src[lo:mid], src[mid:hi])
			}(runs[r], runs[r+1], runs[r+2])
			next = append(next, runs[r+2])
		}
		if len(runs)%2 == 0 {
			// Odd run count: the last run has no partner this level.
			lo, hi := runs[len(runs)-2], runs[len(runs)-1]
			copy(dst[lo:hi], src[lo:hi])
			if next[len(next)-1] != hi {
				next = append(next, hi)
			}
		}
		mg.Wait()
		src, dst = dst, src
		runs = next
	}
	if &src[0] != &vs[0] {
		copy(vs, src)
	}
}

func byID(a, b *Vertex) int { return cmp.Compare(a.ID, b.ID) }

func mergeVerts(dst, a, b []*Vertex) {
	i, j := 0, 0
	for k := range dst {
		if j >= len(b) || (i < len(a) && a[i].ID <= b[j].ID) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// placeByID orders the snapshot without comparisons when its IDs are
// dense: every live vertex is scattered to slot[v.ID], then one parallel
// compaction over contiguous ID chunks (count, prefix, fill) writes Verts
// in ascending ID order and lut[id] = its index, or -1 for an absent ID.
// The result equals sortVertsByID followed by posMap, for any worker count.
func placeByID(parts [][]*Vertex, maxID VertexID, workers int) ([]*Vertex, []int32) {
	m := int(maxID) + 1
	slot := make([]*Vertex, m)
	// Waived, not proven: the scatter is disjoint because live vertex IDs
	// are distinct (each shard's index map holds one live vertex per ID)
	// — a fact about the parts' contents. The sharedwrite ownership
	// lattice tracks index-derived slot ownership, not value-level
	// properties of what is stored, so the waiver stays with its
	// differential test as the oracle.
	concurrent.ParallelItems(len(parts), workers, 1, func(w int) {
		for _, v := range parts[w] {
			slot[v.ID] = v //vet:sharedwrite live vertex IDs are distinct, so no two vertices share a slot; pinned by TestViewParallelMatchesReference
		}
	})
	cb := concurrent.ChunkBounds(m, workers)
	k := len(cb) - 1
	cnt := make([]int, k+1)
	concurrent.ParallelItems(k, workers, 1, func(w int) {
		c := 0
		for _, v := range slot[cb[w]:cb[w+1]] {
			if v != nil {
				c++
			}
		}
		cnt[w+1] = c
	})
	for w := 0; w < k; w++ {
		cnt[w+1] += cnt[w]
	}
	vs := make([]*Vertex, cnt[k])
	lut := make([]int32, m)
	concurrent.ParallelItems(k, workers, 1, func(w int) {
		// Chunk w owns IDs [cb[w], cb[w+1]) and, by the prefix, the
		// indices [cnt[w], cnt[w+1]) its live IDs take.
		dst := vs[cnt[w]:cnt[w+1]]
		ids := lut[cb[w]:cb[w+1]]
		base, p := cnt[w], 0
		for j, v := range slot[cb[w]:cb[w+1]] {
			if v == nil {
				ids[j] = -1
				continue
			}
			dst[p] = v
			ids[j] = Index32(base + p)
			p++
		}
	})
	return vs, lut
}

// posMap is the sparse-ID index: a map from each snapshot vertex's ID to
// its position in vs.
func posMap(vs []*Vertex) map[VertexID]int32 {
	pos := make(map[VertexID]int32, len(vs))
	for i, v := range vs {
		pos[v.ID] = Index32(i)
	}
	return pos
}

// denseIDLimit bounds the dense-ID path: when the maximum live VertexID
// fits in ~4n slots the snapshot is placed by ID and indexed by a flat
// []int32 table instead of sorted and indexed by a map. Generated datasets
// and SNAP inputs have dense IDs, so the hot path is pure array walks.
func denseIDLimit(n int) uint64 { return uint64(4*n) + 1024 }

// resolve builds the flat adjacency arrays from the snapshot. The output
// is byte-identical to resolveReference for every worker count: pass one
// counts each vertex's live out-degree into its own offset slot, pass two
// fills each vertex's private [off[i], off[i+1]) output range, so no two
// workers ever write the same element.
func (vw *View) resolve(directed bool, workers int) {
	n := len(vw.Verts)
	off := make([]int32, n+1)
	concurrent.ParallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d := int32(0)
			out := vw.Verts[i].Out
			for k := range out {
				if vw.IndexOf(out[k].To) >= 0 {
					d++
				}
			}
			off[i+1] = d
		}
	})
	prefixSum32(off)
	deg := int(off[n])
	nbr := make([]int32, deg)
	wts := make([]float64, deg)
	concurrent.ParallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Each vertex fills its own CSR row [off[i], off[i+1]), disjoint
			// across i by prefixSum32 — cutting the rows out makes them
			// worker-owned windows the prover verifies.
			row := nbr[off[i]:off[i+1]]
			wrow := wts[off[i]:off[i+1]]
			p := 0
			out := vw.Verts[i].Out
			for k := range out {
				if j := vw.IndexOf(out[k].To); j >= 0 {
					row[p] = j
					wrow[p] = out[k].Weight
					p++
				}
			}
		}
	})
	vw.NbrOff, vw.Nbr, vw.NbrW = off, nbr, wts
	if !directed {
		vw.InOff, vw.InNbr = off, nbr
		return
	}
	vw.InOff, vw.InNbr = reverseCSR(n, off, nbr, workers)
}

// resolveReference is the seed serial resolution kept verbatim as the
// differential oracle (see ViewReference).
func (vw *View) resolveReference(directed bool) {
	n := len(vw.Verts)
	off := make([]int32, n+1)
	deg := 0
	for i, v := range vw.Verts {
		off[i] = Index32(deg)
		for k := range v.Out {
			if _, ok := vw.pos[v.Out[k].To]; ok {
				deg++
			}
		}
	}
	off[n] = Index32(deg)
	nbr := make([]int32, deg)
	wts := make([]float64, deg)
	p := 0
	for _, v := range vw.Verts {
		for k := range v.Out {
			if j, ok := vw.pos[v.Out[k].To]; ok {
				nbr[p] = j
				wts[p] = v.Out[k].Weight
				p++
			}
		}
	}
	vw.NbrOff, vw.Nbr, vw.NbrW = off, nbr, wts
	if !directed {
		vw.InOff, vw.InNbr = off, nbr
		return
	}
	inOff, inNbr := reverseCSRSerial(n, off, nbr)
	vw.InOff, vw.InNbr = inOff, inNbr
}

// prefixSum32 turns per-slot counts (off[i+1] = count of i, off[0] = 0)
// into exclusive prefix offsets, in place.
func prefixSum32(off []int32) {
	var run int32
	for i := 1; i < len(off); i++ {
		run += off[i]
		off[i] = run
	}
}

// reverseCSR builds the in-neighbor arrays: a counting sort of the forward
// edges by target, sources in ascending order within each bucket. The
// parallel path uses per-worker histograms — hist[w*n+j] counts worker w's
// edges into bucket j, then is transformed in place into worker w's write
// cursor inside bucket j — so the fill phase is write-disjoint and the
// output matches the serial counting sort exactly (workers own ascending
// contiguous source ranges).
func reverseCSR(n int, off, nbr []int32, workers int) (inOff, inNbr []int32) {
	if workers > n/1024 {
		// Histogram memory is workers*n; small graphs gain nothing.
		workers = n / 1024
	}
	if workers > 16 {
		workers = 16
	}
	if workers <= 1 || n == 0 {
		return reverseCSRSerial(n, off, nbr)
	}
	bounds := concurrent.ChunkBounds(n, workers)
	w := len(bounds) - 1
	hist := make([]int32, w*n)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			h := hist[wi*n : wi*n+n]
			for _, j := range nbr[off[bounds[wi]]:off[bounds[wi+1]]] {
				h[j]++
			}
		}(wi)
	}
	wg.Wait()
	// Column scan: per bucket j, replace counts with each worker's
	// exclusive start inside the bucket and record the bucket total.
	inOff = make([]int32, n+1)
	concurrent.ParallelRange(n, w, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			var run int32
			for wi := 0; wi < w; wi++ {
				c := hist[wi*n+j]
				hist[wi*n+j] = run
				run += c
			}
			inOff[j+1] = run
		}
	})
	prefixSum32(inOff)
	inNbr = make([]int32, off[n])
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			h := hist[wi*n : wi*n+n]
			// Waived, not proven: worker wi's slots in bucket j are
			// [inOff[j]+hist[wi*n+j], inOff[j]+hist[wi*n+j]+count), carved
			// by the column scan above. Disjointness follows from the
			// per-bucket counts summing monotonically across workers —
			// arithmetic over runtime array contents, which the sharedwrite
			// lattice (index-ownership only) cannot express; the
			// serial-vs-parallel differential test is the oracle instead.
			for i := bounds[wi]; i < bounds[wi+1]; i++ {
				for k := off[i]; k < off[i+1]; k++ {
					j := nbr[k]
					inNbr[inOff[j]+h[j]] = Index32(i) //vet:sharedwrite the column scan gave each worker an exclusive slot range per bucket j; pinned by TestReverseCSRParallelMatchesSerial
					h[j]++
				}
			}
		}(wi)
	}
	wg.Wait()
	return inOff, inNbr
}

// reverseCSRSerial is the seed counting sort (also the oracle the property
// test in view_test.go checks the parallel path against).
func reverseCSRSerial(n int, off, nbr []int32) (inOff, inNbr []int32) {
	inOff = make([]int32, n+1)
	for _, j := range nbr {
		inOff[j+1]++
	}
	for i := 0; i < n; i++ {
		inOff[i+1] += inOff[i]
	}
	inNbr = make([]int32, len(nbr))
	fill := make([]int32, n)
	for i := 0; i < n; i++ {
		for k := off[i]; k < off[i+1]; k++ {
			j := nbr[k]
			inNbr[inOff[j]+fill[j]] = Index32(i)
			fill[j]++
		}
	}
	return inOff, inNbr
}

// applyOrder composes perm (perm[new] = old) into the view: Verts, the
// forward CSR and the ID index move together (lut is remapped through the
// inverse permutation in place, pos is rebuilt), and the reverse arrays
// are rebuilt so in-neighbors stay ascending in the new index space.
// Within-vertex neighbor order is preserved under relabeling.
func (vw *View) applyOrder(perm []int32, directed bool, workers int) {
	n := len(vw.Verts)
	if len(perm) != n {
		panic(fmt.Sprintf("property: order permutation has %d entries for %d vertices", len(perm), n))
	}
	inv := make([]int32, n)
	seen := make([]bool, n)
	for ni, oi := range perm {
		if oi < 0 || int(oi) >= n || seen[oi] {
			panic(fmt.Sprintf("property: order permutation is not a bijection at entry %d (old index %d)", ni, oi))
		}
		seen[oi] = true
		inv[oi] = Index32(ni)
	}

	oldVerts, oldOff, oldNbr, oldWts := vw.Verts, vw.NbrOff, vw.Nbr, vw.NbrW
	verts := make([]*Vertex, n)
	off := make([]int32, n+1)
	concurrent.ParallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := perm[i]
			verts[i] = oldVerts[o]
			off[i+1] = oldOff[o+1] - oldOff[o]
		}
	})
	prefixSum32(off)
	nbr := make([]int32, len(oldNbr))
	wts := make([]float64, len(oldWts))
	concurrent.ParallelRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := perm[i]
			s := oldOff[o]
			// Row [off[i], off[i+1]) is vertex i's alone (prefixSum32), so
			// the cut slices are worker-owned windows the prover verifies.
			row := nbr[off[i]:off[i+1]]
			wrow := wts[off[i]:off[i+1]]
			for k := range row {
				row[k] = inv[oldNbr[s+Index32(k)]]
				wrow[k] = oldWts[s+Index32(k)]
			}
		}
	})
	if lut := vw.lut; lut != nil {
		concurrent.ParallelRange(len(lut), workers, func(lo, hi int) {
			for id := lo; id < hi; id++ {
				if o := lut[id]; o >= 0 {
					lut[id] = inv[o]
				}
			}
		})
	} else {
		vw.pos = posMap(verts)
	}
	vw.Verts, vw.NbrOff, vw.Nbr, vw.NbrW = verts, off, nbr, wts
	if !directed {
		vw.InOff, vw.InNbr = off, nbr
		return
	}
	vw.InOff, vw.InNbr = reverseCSR(n, off, nbr, workers)
}

// publishIndex writes each snapshot vertex's dense index into its
// sys.index property slot, under the owning shard's write lock so the
// publication cannot race concurrent property mutation.
func (g *Graph) publishIndex(vw *View, idxSlot, workers int) {
	concurrent.ParallelRange(len(g.shards), workers, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			sh := &g.shards[s]
			sh.mu.Lock()
			for _, v := range sh.verts {
				if v.dead {
					continue
				}
				if i := vw.IndexOf(v.ID); i >= 0 {
					v.props[idxSlot] = float64(i)
				}
			}
			sh.mu.Unlock()
		}
	})
}

// IndexOf returns the dense index of id, or -1.
func (vw *View) IndexOf(id VertexID) int32 {
	if vw.lut != nil {
		if id < VertexID(len(vw.lut)) {
			return vw.lut[id]
		}
		return -1
	}
	if i, ok := vw.pos[id]; ok {
		return i
	}
	return -1
}

// Len returns the number of vertices in the view.
func (vw *View) Len() int { return len(vw.Verts) }

// Degree returns the resolved out-degree of dense index i (edges to dead
// vertices excluded).
func (vw *View) Degree(i int32) int32 { return vw.NbrOff[i+1] - vw.NbrOff[i] }

// Adj returns the resolved out-neighbor indices of dense index i.
func (vw *View) Adj(i int32) []int32 { return vw.Nbr[vw.NbrOff[i]:vw.NbrOff[i+1]] }

// AdjW returns the edge weights parallel to Adj(i).
func (vw *View) AdjW(i int32) []float64 { return vw.NbrW[vw.NbrOff[i]:vw.NbrOff[i+1]] }

// InAdj returns the in-neighbor indices of dense index i (equal to Adj on
// undirected graphs).
func (vw *View) InAdj(i int32) []int32 { return vw.InNbr[vw.InOff[i]:vw.InOff[i+1]] }

// EdgeTotal returns the number of resolved directed edge records.
func (vw *View) EdgeTotal() int64 { return int64(len(vw.Nbr)) }

// Partitions returns the partition plan recorded at construction, or nil
// when the view was built without ViewOpts.Partitions. A non-nil plan is
// the signal that selects the engine's partitioned traversal mode.
func (vw *View) Partitions() *partition.Plan { return vw.parts }
