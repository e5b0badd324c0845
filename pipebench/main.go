// Command pipebench is the end-to-end benchmark of the GraphBIG-Go
// pipeline. One run takes a workload name and a seed, generates the
// workload's input from the seed, and drives the program through its
// public functions — gen, loader, property, engine and workloads — as a
// closed loop with one client: set-up (input to the first published
// View), then queries and update batches, each issued only after the
// previous answer has been checked. Every answer is checked outside the
// timed region; the last line of standard output is a JSON summary.
//
// Usage, from the repository root:
//
//	bash pipebench/run.sh --workload ldbc-query --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it runs the pipeline with half the operations and a span around every
// call into the program, issues each query a second time untraced to
// measure the tracing overhead, adds probes for the layers the loop does
// not isolate (serial columns, the COST baseline, gen.Build on the same
// edge list, a second same-seed Generate, a SNAP round trip), reports the
// per-layer metrics, and writes the spans to .bench_build/trace/.
// Kernels and snapshots run with GOMAXPROCS workers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"github.com/graphbig/graphbig-go/internal/property"
)

// workload is one set of inputs and one operation mix.
type workload struct {
	name    string
	dataset string  // gen catalog name
	scale   float64 // fraction of the paper-scale vertex count
	snap    bool    // ingest through loader.ReadSNAP instead of Generate

	// Per 20 seconds of --seconds: query triples (BFS, SPathDelta and
	// CComp from random sources) on the set-up snapshot, then update
	// batches, each followed by readsPerBatch triples on its snapshot.
	triples, batches, readsPerBatch int
}

var catalog = []workload{
	{name: "ldbc-query", dataset: "ldbc", scale: 0.1, triples: 50, batches: 24},
	{name: "road-query", dataset: "ca-road", scale: 0.25, triples: 50, batches: 24},
	{name: "twitter-update", dataset: "twitter", scale: 0.01, snap: true, batches: 25, readsPerBatch: 2},
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ldbc-query, road-query or twitter-update")
	seed := fs.Int64("seed", 1, "seed for the input and the operation stream")
	seconds := fs.Int("seconds", 20, "run length; scales the number of operations (fixed per value)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(catalog, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "pipebench: need --workload (ldbc-query, road-query, twitter-update), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	w := catalog[i]
	// A traced run issues half the operations of an end-to-end run, and
	// repeats each query untraced to measure the tracing overhead.
	div := 20
	if *trace == 1 {
		div = 40
	}
	w.triples = w.triples * *seconds / div
	w.batches = max(1, w.batches*(*seconds)/div)
	if err := bench(w, *seed, *trace == 1, stdout); err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func bench(w workload, seed int64, traced bool, out io.Writer) error {
	workers := runtime.GOMAXPROCS(0)
	stamp := fmt.Sprintf("gomaxprocs=%d nproc=%d go=%s workers=%d", workers, runtime.NumCPU(), runtime.Version(), workers)
	fmt.Fprintf(out, "# pipebench workload=%s seed=%d trace=%t %s\n", w.name, seed, traced, stamp)
	in, err := prepare(w, seed, workers, traced)
	if err != nil {
		return err
	}

	var sum summary
	var tr *tracer
	reps := setupReps
	if traced {
		tr, reps = newTracer(), 1
	}
	p := newPass(w, seed, workers, in, tr)
	if err := p.run(reps); err != nil {
		return err
	}
	if !traced {
		sum.Metrics = endToEnd(p, out)
	} else {
		sum.Metrics = perLayer(p, out)
		path, err := tr.write(".bench_build/trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed), map[string]any{
			"workload": w.name, "seed": seed, "gomaxprocs": workers, "nproc": runtime.NumCPU(),
			"go": runtime.Version(), "input_sha256": in.hash, "vertices": in.verts, "arcs": in.arcs,
		})
		if err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(out, "# spans: %s (%d spans)\n", path, len(tr.spans))
	}
	fmt.Fprintf(out, "# input sha256=%s vertices=%d arcs=%d\n", in.hash, in.verts, in.arcs)
	for _, e := range p.errs {
		fmt.Fprintf(out, "# FAILED: %s\n", e)
	}
	fmt.Fprintf(out, "metric failed_frac %.6f ratio n=%d\n", float64(p.failed)/float64(max(p.attempted, 1)), p.attempted)
	sum.Correct = p.failed == 0
	sum.Attempted = p.attempted
	sum.Failed = p.failed
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(b))
	return nil
}

// run sets up reps times, keeping the last snapshot, then runs the phase.
// On a traced pass it also runs the layer probes around the phase.
func (p *pass) run(reps int) error {
	gc0 := readGC()
	g, vw, err := p.setup()
	for r := 1; r < reps && err == nil; r++ {
		g, vw = nil, nil // release the previous graph before the next set-up
		g, vw, err = p.setup()
	}
	if err != nil {
		return err
	}
	runtime.GC()
	live := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(live)
	p.liveHeapMB = float64(live[0].Value.Uint64()) / 1e6
	gcSetup := readGC()

	if p.tr != nil {
		p.probeView(g, vw)
		runtime.GC() // start the phase on a collected heap, as after set-up
	}
	gcProbe := readGC()

	phase := p.tr.begin("bench.phase", p.runSpan)
	rng := newRNG(p.seed, 1)
	triple := func(vw *property.View) {
		src := vw.Verts[rng.IntN(vw.Len())].ID
		p.query("bfs", func() time.Duration { return p.bfs(g, vw, src, p.workers, "workloads.BFS", phase) })
		src2 := vw.Verts[rng.IntN(vw.Len())].ID
		p.query("sssp", func() time.Duration { return p.sssp(g, vw, src2, p.workers, "workloads.SPathDelta", phase) })
		p.query("cc", func() time.Duration { return p.cc(g, vw, p.workers, "workloads.CComp", phase) })
	}
	for range p.w.triples {
		triple(vw)
	}
	// Every run enters the batches at the same point of the collector's
	// cycle: a collection inside a snapshot roughly doubles that batch.
	runtime.GC()
	st := newDyn(g, vw, p.seed)
	for range p.w.batches {
		vw = p.batch(g, st, phase)
		for range p.w.readsPerBatch {
			triple(vw)
		}
	}
	p.tr.end(phase)
	gcPhase := readGC()
	p.tr.end(p.runSpan)

	if p.tr != nil {
		p.gcSetup = gcSetup.minus(gc0)
		p.gcPhase = gcPhase.minus(gcProbe)
		p.probeRegenerate()
	}
	return nil
}

// endToEnd reports the untraced pass's user-visible metrics.
func endToEnd(p *pass, out io.Writer) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string, n int) {
		m[name] = metric{v, unit}
		fmt.Fprintf(out, "metric %s %.6g %s n=%d\n", name, v, unit, n)
	}
	setup := median(p.setupS)
	put("setup_s", setup, "s", len(p.setupS))
	put("total_s", setup+p.opTime.Seconds(), "s", 1)
	put("live_heap_mb", p.liveHeapMB, "MB", 1)
	for _, k := range []string{"bfs", "sssp", "cc", "update_batch"} {
		xs := p.samples[k]
		put(k+"_ms_p50", median(xs), "ms", len(xs))
		if k != "update_batch" {
			put(k+"_ms_p80", percentile(xs, 80), "ms", len(xs))
		}
		fmt.Fprintf(out, "# %s_ms n=%d p50=%.4g %s\n", k, len(xs), median(xs), tail(xs))
	}
	return m
}

// tail describes the highest whole percentile that has at least ten
// samples beyond it.
func tail(xs []float64) string {
	n := len(xs)
	if n < 20 {
		return "(fewer than 20 samples: no tail percentile)"
	}
	p := 100 * (n - 10) / n
	return fmt.Sprintf("p%d=%.4g (%d beyond)", p, percentile(xs, float64(p)), n-rank(n, float64(p))-1)
}

// rank is the nearest-rank index of percentile q in n sorted samples.
func rank(n int, q float64) int {
	r := int(float64(n)*q/100+0.999999999) - 1
	return min(max(r, 0), n-1)
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), q)]
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
