package property

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/graphbig/graphbig-go/internal/mem"
)

// randomBulk returns a stream over n vertices and m arcs. Loader mode
// creates vertices on first mention (sparse 64-bit IDs, duplicate arcs,
// self loops, and a few vertices no arc mentions); generator mode
// creates dense IDs up front and draws each undirected pair at most
// once, in sorted order, as gen.Build does.
func randomBulk(r *rand.Rand, n, m int, loader bool) *Bulk {
	b := &Bulk{}
	if !loader {
		for i := range n {
			b.IDs = append(b.IDs, VertexID(i))
		}
		var pairs []uint64
		for range m {
			s, d := r.IntN(n), r.IntN(n)
			if s != d {
				pairs = append(pairs, uint64(min(s, d))<<32|uint64(max(s, d)))
			}
		}
		slices.Sort(pairs)
		for _, p := range slices.Compact(pairs) {
			s, d := int32(p>>32), int32(uint32(p))
			b.Src, b.Dst = append(b.Src, s), append(b.Dst, d)
			b.W = append(b.W, float64(1+(s*7+d)%100))
		}
		return b
	}
	pool := make([]VertexID, n)
	for i := range pool {
		pool[i] = VertexID(r.Uint64())
	}
	pool[0] = 1<<64 - 1
	index := map[VertexID]int32{}
	mention := func(id VertexID) int32 {
		if i, ok := index[id]; ok {
			return i
		}
		i := int32(len(b.IDs))
		index[id] = i
		b.IDs = append(b.IDs, id)
		b.At = append(b.At, len(b.Src))
		return i
	}
	for k := range m {
		s := mention(pool[r.IntN(n)])
		d := s
		if r.IntN(8) != 0 {
			d = mention(pool[r.IntN(n)])
		}
		b.Src, b.Dst = append(b.Src, s), append(b.Dst, d)
		b.W = append(b.W, float64(k%13))
		if r.IntN(10) == 0 { // a duplicate of the arc just read
			b.Src, b.Dst = append(b.Src, s), append(b.Dst, d)
			b.W = append(b.W, 2)
		}
	}
	for range 3 { // isolated vertices after the last arc
		mention(VertexID(r.Uint64()))
	}
	return b
}

func TestBulkBuildMatchesReplay(t *testing.T) {
	modes := []struct {
		name   string
		opt    Options
		loader bool
	}{
		{"undirected", Options{}, false},
		{"undirected-loader", Options{}, true},
		{"directed", Options{Directed: true}, true},
		{"directed-trackin", Options{Directed: true, TrackInEdges: true}, true},
		{"directed-trackin-hinted", Options{Directed: true, TrackInEdges: true, Hint: 5000, Shards: 16}, false},
		{"edge-slots", Options{EdgePropSlots: 2, Schema: NewSchema("a", "b")}, false},
	}
	sizes := []struct{ n, m int }{{1, 0}, {5, 3}, {300, 2000}, {4000, 30000}}
	for _, md := range modes {
		for _, sz := range sizes {
			b := randomBulk(rand.New(rand.NewPCG(uint64(sz.n), uint64(sz.m))), sz.n, sz.m, md.loader)
			want, err := b.Replay(md.opt)
			if err != nil {
				t.Fatalf("%s n=%d: Replay: %v", md.name, sz.n, err)
			}
			for _, w := range []int{1, 2, 8} {
				got, err := b.Build(md.opt, w)
				if err != nil {
					t.Fatalf("%s n=%d workers=%d: Build: %v", md.name, sz.n, w, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d m=%d workers=%d: Build differs from Replay", md.name, sz.n, sz.m, w)
				}
				if err := Validate(got); err != nil {
					t.Fatalf("%s workers=%d: %v", md.name, w, err)
				}
			}
		}
	}
}

// The headroom rule: a bulk-built list appends in place until it reaches
// its simulated chunk capacity, exactly when Replay's chunk would grow.
func TestBulkBuildHeadroom(t *testing.T) {
	b := &Bulk{IDs: []VertexID{0, 1, 2, 3, 4, 5}}
	for d := int32(1); d < 6; d++ {
		b.Src, b.Dst, b.W = append(b.Src, 0), append(b.Dst, d), append(b.W, 1)
	}
	g, err := b.Build(Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := g.FindVertex(0)
	if len(v.Out) != 5 || cap(v.Out) != 8 || v.edgeCap != 8 {
		t.Fatalf("len %d cap %d edgeCap %d, want 5/8/8", len(v.Out), cap(v.Out), v.edgeCap)
	}
	// Appending past the headroom must not write into a neighbour's window.
	for i := 0; i < 4; i++ {
		if err := g.AddEdge(0, 5, 1); err != nil {
			t.Fatal(err)
		}
	}
	if u := g.FindVertex(1); len(u.Out) != 1 || u.Out[0].To != 0 {
		t.Fatalf("vertex 1's list was overwritten: %+v", u.Out)
	}
}

func TestBulkRejectsBadStreams(t *testing.T) {
	bad := []Bulk{
		{IDs: []VertexID{1, 2}, Src: []int32{0}, Dst: []int32{2}, W: []float64{1}},
		{IDs: []VertexID{1, 2}, At: []int{0, 1}, Src: []int32{0}, Dst: []int32{1}, W: []float64{1}},
		{IDs: []VertexID{1, 1}},
		{IDs: []VertexID{1}, Src: []int32{0}, Dst: []int32{0}},
		{IDs: []VertexID{1}, At: []int{0, 0}},
	}
	for i, b := range bad {
		if _, err := b.Replay(Options{}); err == nil {
			t.Errorf("stream %d: Replay accepted it", i)
		}
		if _, err := b.Build(Options{}, 2); err == nil {
			t.Errorf("stream %d: Build accepted it", i)
		}
	}
}

// A tracked graph is built through the primitives, so the tracker sees
// the same event stream as a hand-written AddVertex/AddEdge loop.
func TestBulkBuildTrackedUsesPrimitives(t *testing.T) {
	b := randomBulk(rand.New(rand.NewPCG(1, 2)), 50, 200, true)
	viaBuild, viaReplay := mem.NewCounting(), mem.NewCounting()
	if _, err := b.Build(Options{Directed: true, TrackInEdges: true, Tracker: viaBuild}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Replay(Options{Directed: true, TrackInEdges: true, Tracker: viaReplay}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaBuild, viaReplay) || viaBuild.Insts[mem.ClassFramework] == 0 {
		t.Fatalf("tracked Build events %+v, Replay %+v", viaBuild, viaReplay)
	}
}
