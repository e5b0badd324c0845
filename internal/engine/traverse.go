package engine

import (
	"sync/atomic"

	"github.com/graphbig/graphbig-go/internal/concurrent"
	"github.com/graphbig/graphbig-go/internal/property"
)

// Spec configures one Traverse call. Dist is the only required field: it is
// both the output (level/component label per dense index) and the visited
// structure — a vertex with Dist[v] >= 0 is never re-claimed, so callers
// can run several traversals over one array (CComp labels components by
// reusing it across calls).
type Spec struct {
	// Dist holds -1 for unvisited slots; Traverse writes the discovery
	// round (0 for sources) into each claimed slot. len(Dist) must equal
	// the engine's vertex count.
	Dist []int32

	// Visit, if set, is called exactly once per newly claimed vertex with
	// its discovery round. In native runs it may be called from multiple
	// goroutines concurrently; it must not touch framework primitives.
	// Sources do not get a Visit call — callers initialize them.
	Visit func(v, round int32)

	// Label, if set with Labels, is written to Labels[v] when v is
	// claimed, giving CComp-style workloads a race-free component tag
	// without a second pass.
	Label  int32
	Labels []int32

	// NoPull forces pure push mode (for workloads whose semantics depend
	// on push-order effects, or for comparison runs).
	NoPull bool

	// TrackedVisit hosts the workload's instrumented per-frontier-item
	// body: k is the position of u in the current frontier, and emit
	// enqueues a newly discovered vertex for the next round, returning its
	// position in that frontier (legacy loops record a simulated store at
	// that slot). When a tracker is installed the engine runs a
	// single-threaded push loop that only calls TrackedVisit — the event
	// stream is entirely the workload's own, bit-identical to the
	// pre-engine implementations.
	TrackedVisit func(k int, u, round int32, emit func(v int32) int)
}

// Stats summarizes one Traverse call. PushRounds/PullRounds count global
// rounds in flat mode and the sum of partition-local rounds in partitioned
// mode; Supersteps and BoundarySent are zero except in partitioned mode.
type Stats struct {
	Reached    int64 // vertices claimed, including the sources
	Depth      int32 // highest round assigned (0 if only sources)
	PushRounds int
	PullRounds int

	Supersteps   int   // partitioned mode: boundary-exchange iterations
	BoundarySent int64 // partitioned mode: cross-partition messages posted
}

// Traverse runs a level-synchronous traversal from srcs. Sources must
// already have Dist[src] set (by convention 0) by the caller; Traverse
// claims every vertex reachable through unvisited slots and returns the
// per-call stats.
//
// Native runs direction-optimize: rounds run in push mode (scatter from a
// sparse frontier, atomic CAS claims) until the frontier's out-degree sum
// exceeds unexplored/Alpha, then in pull mode (every unvisited vertex
// scans its in-neighbors against a dense bitmap, single writer per slot)
// until the awake count drops below n/Beta. Instrumented runs always use
// the single-threaded push loop around Spec.TrackedVisit.
func (e *Engine) Traverse(spec *Spec, srcs ...int32) Stats {
	if len(spec.Dist) != e.n {
		panic("engine: Spec.Dist length does not match view")
	}
	cur, next := e.frontiers()
	cur.Append(srcs)
	st := Stats{Reached: int64(len(srcs))}
	switch {
	case e.Tracked():
		e.trackedPush(spec, cur, next, &st)
	case e.partitionedOK(spec):
		e.partitionedTraverse(spec, cur, &st)
	default:
		e.nativeTraverse(spec, cur, next, &st)
	}
	return st
}

// trackedPush is the deterministic single-threaded frontier loop backing
// instrumented runs. All per-vertex and per-edge work — and therefore the
// entire tracker event stream — lives in the workload's TrackedVisit.
func (e *Engine) trackedPush(spec *Spec, cur, next *concurrent.Frontier, st *Stats) {
	// emit captures next by reference, so the frontier swap below retargets
	// it automatically.
	emit := func(v int32) int {
		next.Push(v)
		return next.Len() - 1
	}
	round := int32(1)
	for cur.Len() > 0 {
		fr := cur.Slice()
		for k := range fr {
			spec.TrackedVisit(k, fr[k], round, emit)
		}
		st.Reached += int64(next.Len())
		if next.Len() > 0 {
			st.Depth = round
		}
		st.PushRounds++
		cur, next = next, cur
		next.Reset()
		round++
	}
}

func (e *Engine) nativeTraverse(spec *Spec, cur, next *concurrent.Frontier, st *Stats) {
	vw := e.vw
	// edgesLeft approximates the unexplored-edge count driving the
	// push->pull switch; scout is the out-degree sum of the live frontier.
	edgesLeft := vw.EdgeTotal()
	scout := int64(-1) // -1: cur's degree sum not yet taken
	round := int32(1)
	for cur.Len() > 0 {
		if scout < 0 {
			// The sources and a pull phase's exit frontier arrive
			// unsummed; push rounds return the sum of what they produce.
			scout = 0
			for _, s := range cur.Slice() {
				scout += int64(vw.Degree(s))
			}
		}
		if !spec.NoPull && scout > edgesLeft/Alpha {
			e.pullPhase(spec, cur, &round, st)
			scout = -1
			edgesLeft = 0 // pull scanned the remainder; stay in push from here
			continue
		}
		produced, scouted := e.pushRound(spec, cur, next, round)
		edgesLeft -= scout
		scout = scouted
		st.Reached += produced
		if produced > 0 {
			st.Depth = round
		}
		st.PushRounds++
		cur, next = next, cur
		next.Reset()
		round++
	}
}

// Push rounds split the frontier into pushGrain-item chunks that workers
// claim from a shared cursor. Each worker queues its claims in its own lane
// buffer of pushBlock slots and flushes a full buffer into the next
// frontier with one Frontier.Append, so a round costs one contended atomic
// per block of claims rather than one per claim (GAP's QueueBuffer).
const (
	pushGrain = 64
	pushBlock = 1024
)

// pushLane is one worker's push-round scratch: buf holds claims not yet
// flushed into the next frontier, and produced/scouted are the worker's
// tallies for the round, summed by the coordinator after the barrier.
// The padding keeps each lane's tallies off its neighbours' cache lines.
type pushLane struct {
	buf               []int32
	produced, scouted int64
	_                 [88]byte
}

// pushRound scatters from the sparse frontier: each worker claims
// unvisited neighbors with an atomic CAS on Dist, which makes the claim
// the sole arbiter — no racy reads of shared workload state. A frontier of
// at most one chunk runs inline on lane 0, so one worker reproduces the
// sequential push order exactly. Returns the number of vertices produced
// and the sum of their degrees (scout count).
func (e *Engine) pushRound(spec *Spec, cur, next *concurrent.Frontier, round int32) (produced, scouted int64) {
	fr := cur.Slice()
	w := e.Workers()
	if len(fr) <= pushGrain {
		w = 1
	}
	lanes := e.lanes
	if len(lanes) < w {
		lanes = make([]pushLane, w)
		for p := range lanes {
			lanes[p].buf = make([]int32, 0, pushBlock)
		}
		e.lanes = lanes
	}
	var cursor atomic.Int64
	concurrent.ParallelItems(w, w, 1, func(p int) {
		e.pushWorker(p, spec, fr, &cursor, next, round)
	})
	// Every lane below w was written this round (ParallelItems runs each
	// item); lanes above it may hold an earlier round's tallies.
	for _, l := range lanes[:w] {
		produced += l.produced
		scouted += l.scouted
	}
	return produced, scouted
}

// pushWorker is worker p's share of a push round: it claims chunks of fr
// from cursor until none are left, queues every vertex it claims in lane
// p's buffer, flushes the buffer into next a block at a time and once more
// at the end, and records its tallies in the lane.
func (e *Engine) pushWorker(p int, spec *Spec, fr []int32, cursor *atomic.Int64, next *concurrent.Frontier, round int32) {
	vw := e.vw
	dist := spec.Dist
	lanes := e.lanes
	buf := lanes[p].buf[:0]
	var produced, scouted int64
	for {
		// lo < 0 only if the cursor wrapped; testing it also lets the
		// compiler drop the bounds check on fr[lo:].
		lo := int(cursor.Add(pushGrain)) - pushGrain
		if lo < 0 || lo >= len(fr) {
			break
		}
		chunk := fr[lo:]
		if len(chunk) > pushGrain {
			chunk = chunk[:pushGrain]
		}
		for _, u := range chunk {
			for _, v := range vw.Adj(u) {
				if atomic.LoadInt32(&dist[v]) < 0 && atomic.CompareAndSwapInt32(&dist[v], -1, round) {
					if spec.Labels != nil {
						spec.Labels[v] = spec.Label
					}
					if spec.Visit != nil {
						spec.Visit(v, round)
					}
					if len(buf) == cap(buf) {
						next.Append(buf)
						buf = buf[:0]
					}
					buf = append(buf, v)
					produced++
					scouted += int64(vw.Degree(v))
				}
			}
		}
	}
	next.Append(buf)
	lanes[p].buf = buf[:0]
	lanes[p].produced = produced
	lanes[p].scouted = scouted
}

// pullPhase runs bottom-up rounds: the sparse frontier is densified into a
// bitmap, then every unvisited vertex scans its in-neighbors for a parent
// on the frontier. Dist slots are written only by the worker owning their
// chunk, so the phase needs no atomics on Dist. Rounds continue until the
// awake count drops below n/Beta (or the traversal dies out), at which
// point the surviving bitmap is sparsified back into cur for push mode.
//
// The scan is prefetch-friendly: the reverse-CSR offset and neighbor
// arrays are hoisted out of the loop once, each chunk walks a contiguous
// offset window, and every in-neighbor row is cut out as one slice — the
// offsets stream linearly, the row loads stream linearly, and the only
// irregular accesses left are the frontier-bitmap probes.
func (e *Engine) pullPhase(spec *Spec, cur *concurrent.Frontier, round *int32, st *Stats) {
	dist := spec.Dist
	n := e.n
	curBits, nextBits := e.bitmaps()
	curBits.Clear()
	for _, v := range cur.Slice() {
		curBits.Set(int(v))
	}
	inOff, inNbr := e.vw.InOff, e.vw.InNbr
	for {
		// Per-round copies: the closure captures these by value, where the
		// swapped loop variables would have to move to the heap.
		cb, nb := curBits, nextBits
		nb.Clear()
		var produced atomic.Int64
		r := *round
		e.ForChunks(func(lo, hi int) {
			var p int64
			if lo >= hi {
				return
			}
			// Re-slice to the chunk extent: d and off are windows of the
			// same [lo,hi) range, with off one element longer so off[dv+1]
			// reads the row end. The two one-time probes teach the
			// bounds-check eliminator (and the vet prover) that relation in
			// both directions, so the loop body indexes check-free.
			d := dist[lo:hi]
			off := inOff[lo : hi+1]
			_ = off[len(d)]
			_ = d[len(off)-2]
			for dv := range d {
				if d[dv] >= 0 {
					continue
				}
				row := inNbr[off[dv]:off[dv+1]]
				claimed := false
				for _, u := range row {
					if cb.Test(int(u)) {
						claimed = true
						break
					}
				}
				if !claimed {
					continue
				}
				d[dv] = r
				v := lo + dv
				if spec.Labels != nil {
					spec.Labels[v] = spec.Label
				}
				if spec.Visit != nil {
					spec.Visit(property.Index32(v), r)
				}
				nb.Set(v)
				p++
			}
			if p != 0 {
				produced.Add(p)
			}
		})
		awake := produced.Load()
		st.Reached += awake
		if awake > 0 {
			st.Depth = r
		}
		st.PullRounds++
		*round = r + 1
		curBits, nextBits = nextBits, curBits
		if awake == 0 {
			cur.Reset()
			return
		}
		if awake < int64(n)/Beta {
			break
		}
	}
	// Sparsify the surviving frontier back into push mode, through the
	// engine's scratch slice so each pull exit reuses one buffer instead
	// of allocating a fresh sparse list.
	cur.Reset()
	e.sparse = curBits.AppendSet(e.sparse[:0])
	cur.Append(e.sparse)
}
