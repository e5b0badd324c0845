// Package engine (fixture) exercises the sharedwrite prover: writes in
// parallel worker bodies must be worker-disjoint (distinct index,
// disjoint window, owned slice) or mutex-held; everything else is
// reported, unless waived in place with a justification.
package engine

import (
	"sync"
	"sync/atomic"

	"internal/concurrent"
	"internal/partition"
)

// lane is a per-worker record held by value in a slice, the engine's
// push-lane shape; node is reached through pointer elements.
type lane struct {
	buf  []int32
	n    int64
	next *lane
}

type node struct {
	n int64
}

type sim struct {
	lanes []lane
	nodes []*node
	out   []int
	verts []int
	dist  []int32
	hist  []int
	parts [][]int
	total int
	count int
	mu    sync.Mutex
	plan  *partition.Plan
}

// ix is an identity function (the property.Index32 shape): the prover
// peels it.
func ix(i int) int {
	if i < 0 {
		panic("negative index")
	}
	return i
}

// forEach forwards its body to a combinator — calls with a literal open
// a parallel context exactly like the combinator itself.
func forEach(n int, body func(i int)) {
	concurrent.ParallelItems(n, n, 1, body)
}

// claim writes shared state indexed by both parameters: its summary
// requires worker-distinct arguments at every call site.
func (s *sim) claim(i, j int) {
	s.out[i] = 1
	s.verts[j] = 2
}

// bump performs a shared write no parameter can justify.
func (s *sim) bump() {
	s.total++
}

// addLocked is safe under its own mutex; the deferred Unlock keeps the
// lock held to the end as far as the analysis is concerned.
func (s *sim) addLocked(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total += n
}

// itemIndex: the item parameter and its affine/identity images are
// worker-distinct.
func (s *sim) itemIndex(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		s.out[i] = 1
		s.out[i*2] = 2
		s.out[i+1] = 3
		s.out[ix(i)] = 4
	})
}

// rangeWindow: the (lo, hi) parameters of a range body form a disjoint
// window; the induction variable of a loop over it is distinct, and a
// slice cut at the window is worker-owned with the offset rule relating
// range indices back to absolute ones.
func (s *sim) rangeWindow(n int) {
	concurrent.ParallelRange(n, 4, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			s.out[v] = 1
		}
		d := s.out[lo:hi]
		for dv := range d {
			v := lo + dv
			d[dv] = 2
			s.out[v] = 3
		}
	})
}

// planWindow: partition Plan.Range of a distinct partition yields a
// disjoint vertex window.
func (s *sim) planWindow(k int) {
	concurrent.ParallelItems(k, k, 1, func(p int) {
		lo, hi := s.plan.Range(p)
		for v := lo; v < hi; v++ {
			s.dist[v] = 2
		}
	})
}

// guarded: the `if v < lo || v >= hi { continue }` escape guard
// confines v to the window for the rest of the loop body.
func (s *sim) guarded(k int, n int32) {
	concurrent.ParallelItems(k, k, 1, func(p int) {
		lo, hi := s.plan.Range(p)
		for v := int32(0); v < n; v++ {
			if v < lo || v >= hi {
				continue
			}
			s.dist[v] = 3
		}
	})
}

// histo: an affine chunk cut (wi*chunk .. wi*chunk+chunk) is a
// worker-owned subslice; element writes need no index proof.
func (s *sim) histo(workers, chunk int) {
	concurrent.ParallelItems(workers, workers, 1, func(wi int) {
		h := s.hist[wi*chunk : wi*chunk+chunk]
		for j := range h {
			h[j]++
		}
	})
}

// spawnChunks: the hand-rolled pool — bounds-array adjacency
// b[w] / b[w+1] under a distinct loop variable seeds the window over
// the payload parameters.
func (s *sim) spawnChunks(bounds []int) {
	var wg sync.WaitGroup
	for w := 0; w+1 < len(bounds); w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				s.out[v] = 4
			}
		}(bounds[w], bounds[w+1])
	}
	wg.Wait()
}

// spawnParts: a loop variable passed as a spawn argument is distinct.
func (s *sim) spawnParts(workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.parts[w] = nil
		}(w)
	}
	wg.Wait()
}

// delegated: callee requirements re-proven against the arguments.
func (s *sim) delegated(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		s.claim(i, ix(i))
	})
}

// locked: a held mutex blesses any write; lockset audits consistency.
func (s *sim) locked(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		s.mu.Lock()
		s.count++
		s.mu.Unlock()
		s.addLocked(i)
	})
}

// viaWrapper: the wrapper opens the same context as the combinator.
func (s *sim) viaWrapper(n, q int) {
	forEach(n, func(i int) {
		s.out[i] = 8
		s.out[q] = 9 // want "write to shared .* is not proven disjoint across workers"
	})
}

// waived: safety arguments the prover cannot see are waived in place
// with a justification.
func (s *sim) waived(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		s.out[s.verts[i]] = 5 //vet:sharedwrite verts deduplicated at load; pinned by TestVertsUnique
		//vet:sharedwrite winner slot claimed by CAS upstream; pinned by TestClaim
		s.out[s.verts[i]] = 6
		s.out[s.verts[i]] = 7 /*vet:sharedwrite*/ // want "waiver requires a justification"
	})
}

// races: a captured counter is a shared write.
func (s *sim) races(k int) {
	count := 0
	concurrent.ParallelItems(k, k, 1, func(i int) {
		count++ // want "unsynchronized write to shared"
	})
	_ = count
}

// sharedIndex: an index captured from the enclosing scope is the same
// for every worker — nothing proves the writes disjoint.
func (s *sim) sharedIndex(k, j int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		s.out[j] = 1 // want "write to shared .* is not proven disjoint across workers"
	})
}

// fieldWrite: a struct field reached through a captured pointer is
// shared state.
func (s *sim) fieldWrite(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		s.total = i // want "unsynchronized write to shared"
	})
}

// delegatedBad: the callee's unconditional shared write surfaces at the
// call site.
func (s *sim) delegatedBad(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		s.bump() // want "unsynchronized shared write"
	})
}

// delegatedUnproven: the callee's requirement fails against this
// argument.
func (s *sim) delegatedUnproven(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		s.claim(i, s.verts[i]) // want "not proven worker-distinct"
	})
}

// strided: a*total + j is worker-distinct when j is the item index
// confined to [0, total) — the histogram column-scan shape. The pass
// counter a may take any value.
func (s *sim) strided(n, passes int) {
	concurrent.ParallelItems(n, 4, 1, func(j int) {
		for a := 0; a < passes; a++ {
			s.hist[a*n+j] = 1
		}
	})
}

// stridedWindow: loop variables drawn from the context's own window are
// confined too, so the stride rule composes with ParallelRange.
func (s *sim) stridedWindow(n, passes int) {
	concurrent.ParallelRange(n, 4, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			for a := 0; a < passes; a++ {
				s.hist[a*n+v] = 2
			}
		}
	})
}

// stridedBad: the stride rule needs the addend confined to [0, total);
// an affine image j+1 is distinct but may reach total, colliding with
// the next worker's stripe.
func (s *sim) stridedBad(n, passes int) {
	concurrent.ParallelItems(n, 4, 1, func(j int) {
		k := j + 1
		for a := 0; a < passes; a++ {
			s.hist[a*n+k] = 3 // want "write to shared .* is not proven disjoint across workers"
		}
	})
}

// laneFields: a field of a struct-valued element is part of the
// element, so x[i].f is an element write — disjoint under a distinct
// index, shared under a common one.
func (s *sim) laneFields(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		s.lanes[i].n = 1
		s.lanes[i].buf = s.lanes[i].buf[:0]
		s.lanes[0].n = 2 // want "write to shared .* is not proven disjoint across workers"
	})
}

// laneThroughPointer: an element field reached through a pointer
// (pointer elements, or a pointer field of the element) may alias
// another worker's target; the index proves nothing.
func (s *sim) laneThroughPointer(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		s.nodes[i].n = 1      // want "unsynchronized write to shared"
		s.lanes[i].next.n = 2 // want "unsynchronized write to shared"
	})
}

// casClaim: a successful CompareAndSwap on slot v admits at most one
// worker per value of v into the branch, so v is worker-distinct there
// — and only there.
func (s *sim) casClaim(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		v := s.verts[i]
		if atomic.LoadInt32(&s.dist[v]) < 0 && atomic.CompareAndSwapInt32(&s.dist[v], -1, 1) {
			s.out[v] = 1
		}
		s.out[v] = 2 // want "write to shared .* is not proven disjoint across workers"
	})
}

// ptsOwnedLocal: memory allocated inside the worker body with no holder
// outside it is worker-owned by the points-to fallback, even when the
// syntactic owned-slice tracking loses the value through an aggregate.
func (s *sim) ptsOwnedLocal(k int) {
	concurrent.ParallelItems(k, k, 1, func(i int) {
		rows := make([][]int, 2)
		rows[0] = make([]int, 4)
		row := rows[0]
		row[0] = i
	})
}

// spawnCaptured: a captured loop variable is not accepted as a
// distinctness proof — pass it as a spawn argument.
func (s *sim) spawnCaptured(workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.parts[w] = nil // want "write to shared .* is not proven disjoint across workers"
		}()
	}
	wg.Wait()
}
