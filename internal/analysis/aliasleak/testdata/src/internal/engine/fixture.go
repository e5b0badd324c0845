// Fixture engine package: scratch-slot holders for aliasleak's registry
// (Engine.sparse, pushLane.buf and partState.nx) and the stores that
// recycle them.
package engine

import (
	"bytes"

	"internal/property"
)

// Engine mirrors the real engine's scratch holder.
type Engine struct {
	sparse []int32
}

// pushLane mirrors the engine's per-worker push-round queue buffer.
type pushLane struct {
	buf []int32
}

// partState mirrors the partitioned engine's per-partition queues.
type partState struct {
	nx [][]int32
}

// pool is package-level state no scratch slot may alias.
var pool = make([]int32, 64)

// Run publishes a view and exercises every store below.
func Run() {
	g := property.NewGraph(4)
	vw := g.View()
	_ = fresh()
	_ = leakView(vw)
	_ = leakRow(vw)
	_ = freshLanes()
	_ = leakLane(vw)
	_ = leakGlobal()
	_ = leakExtern()
	_ = waived(vw)
	_ = bare(vw)
}

// fresh installs owned memory: clean.
func fresh() *Engine {
	e := &Engine{}
	e.sparse = make([]int32, 8)
	return e
}

func leakView(vw *property.View) *Engine {
	e := &Engine{}
	e.sparse = vw.NbrOff // want "memory of the published View stored into scratch Engine.sparse"
	return e
}

func leakRow(vw *property.View) *partState {
	p := &partState{}
	p.nx = make([][]int32, 2)
	p.nx[0] = vw.NbrOff // want "memory of the published View stored into scratch partState.nx"
	return p
}

// freshLanes recycles owned buffers, the way the engine does: clean.
func freshLanes() []pushLane {
	lanes := make([]pushLane, 2)
	for p := range lanes {
		lanes[p].buf = make([]int32, 0, 8)
	}
	buf := append(lanes[0].buf[:0], 3)
	lanes[0].buf = buf[:0]
	return lanes
}

func leakLane(vw *property.View) []pushLane {
	lanes := make([]pushLane, 2)
	lanes[1].buf = vw.NbrOff[:0] // want "memory of the published View stored into scratch pushLane.buf"
	return lanes
}

func leakGlobal() *Engine {
	e := &Engine{}
	e.sparse = pool // want "memory reachable from package-level state stored into scratch Engine.sparse"
	return e
}

func leakExtern() *Engine {
	e := &Engine{}
	e.sparse = bytes.Runes([]byte("ab")) // want "memory from unanalyzed code stored into scratch Engine.sparse"
	return e
}

// waived carries a justified waiver: suppressed, no want.
func waived(vw *property.View) *Engine {
	e := &Engine{}
	e.sparse = vw.NbrOff //vet:aliasleak read-only borrow released before the next phase in this probe
	return e
}

// bare carries a bare directive: reported, not honored.
func bare(vw *property.View) *Engine {
	e := &Engine{}
	//vet:aliasleak
	e.sparse = vw.NbrOff // want "bare //vet:aliasleak directive: a justification is required"
	return e
}
