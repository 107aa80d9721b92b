// Command perfbench is ldgemm's end-to-end benchmark. One invocation runs
// one workload for a fixed measuring window and prints, as the last line
// of standard output, a JSON object with the correctness verdict, the
// operations attempted and failed, and the metrics:
//
//	perfbench --workload paper-a|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced rounds with rounds that record spans around every
// call into a layer, and reports the per-layer metrics instead (see
// README.md).
//
//	perfbench steady --workload W --runs N --seconds S [--trace 0|1]
//
// runs the benchmark N times with seeds 1..N as child processes and prints
// each metric's median and quartiles: the evidence that it is steady.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/popsim"
)

// workload is one set of inputs. Every workload runs the same phases —
// stream, in-memory build, out-of-core build, sparse build, node and
// cluster lookups, sparse operators — on its own inputs; the inputs and
// the time shares decide which layer dominates.
type workload struct {
	Name string
	// SNPs × Samples is the generated matrix G; the stream phase scans all
	// of it. BuildSNPs is the leading slice B of G that the build phases
	// store and the serving phases serve.
	SNPs, Samples, BuildSNPs int
	Mosaic                   popsim.MosaicConfig
	// Tile is the dense LDTS tile side of the build phases; ServeTile the
	// tile side of the served LDTS; CacheTiles both stores' LRU capacity.
	Tile, ServeTile, CacheTiles int
	// SparseTile, Tau and Band configure every LDSS: banded, |r²| ≥ τ.
	SparseTile int
	Tau        float64
	Band       int
	// HotSet is the number of fixed region queries that half the region
	// queries of the lookup mix repeat.
	HotSet int
	// Share is each phase's fraction of the measuring window.
	Share [numPhases]float64
}

const (
	phStream = iota
	phBuild
	phOOC
	phSparse
	phNode
	phCluster
	phMatVec
	numPhases
)

var workloads = []workload{
	{
		// The paper's Dataset A: k = 40 words, so packing and the fused
		// epilogue weigh as much as the AND+POPCNT kernel.
		Name: "paper-a", SNPs: 10000, Samples: 2504, BuildSNPs: 2048,
		Tile: 128, ServeTile: 64, CacheTiles: 64,
		SparseTile: 128, Tau: 0.2, Band: 256,
		HotSet: 8,
		Share:  [numPhases]float64{0.40, 0.12, 0.12, 0.12, 0.08, 0.08, 0.08},
	},
	{
		// Long-range LD (switch rate 0.002) so the sparse store keeps about
		// 160 entries per row, and an LDTS of 2080 tiles behind a 64-tile
		// LRU: store decode, sparse operators, JSON and fan-out dominate.
		Name: "serve", SNPs: 4096, Samples: 2504, BuildSNPs: 4096,
		Mosaic: popsim.MosaicConfig{SwitchRate: 0.002},
		Tile:   128, ServeTile: 64, CacheTiles: 64,
		SparseTile: 128, Tau: 0.01, Band: 1024,
		HotSet: 8,
		Share:  [numPhases]float64{0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.25},
	},
}

// toy shrinks a workload to a few hundred SNPs for the package test; the
// phases, checks and oracles are the same.
func (w workload) toy() workload {
	w.SNPs, w.BuildSNPs = 320, 320
	w.Samples = min(w.Samples, 1024)
	w.Tile, w.ServeTile, w.SparseTile = 32, 16, 32
	w.CacheTiles = 8
	w.Band = min(w.Band, 64)
	return w
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	Workload workload
	Seed     int64
	Seconds  float64
	Trace    bool
	// Out holds the scratch stores and the span file of a traced run.
	Out string
	Log io.Writer
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-a or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 50, "measuring window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch stores and span files")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return options{}, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	return options{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Out: *out, Log: os.Stderr}, nil
}

// run executes one benchmark run and returns its result line.
func run(opt options) (*result, error) {
	dir, err := os.MkdirTemp(mustMkdir(opt.Out), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{opt: opt, w: opt.Workload, dir: dir, e2e: map[string]metric{}, layer: map[string]metric{}, med: map[string]float64{}}
	if opt.Trace {
		r.tr = newTracer()
	}
	defer r.teardown()
	t0 := time.Now()
	stage := func(what string) {
		fmt.Fprintf(opt.Log, "perfbench: %s %s at %.1fs\n", r.w.Name, what, time.Since(t0).Seconds())
	}
	if err := r.setupMedian(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	stage("set up")
	round := time.Duration(opt.Seconds * float64(time.Second) / rounds)
	if !opt.Trace {
		ps := r.newPhaseSet(false)
		for k := 0; k < rounds; k++ {
			r.round(ps, round)
		}
		r.record(ps)
	} else {
		// Rounds alternate between an untraced and a traced set of the
		// phases: the difference between the two is the tracing overhead.
		// Per-layer probes run after the rounds.
		plain, traced := r.newPhaseSet(false), r.newPhaseSet(true)
		for k := 0; k < rounds/2; k++ {
			r.round(plain, round)
			r.round(traced, round)
		}
		r.record(plain)
		untraced := r.e2e
		r.e2e = map[string]metric{"setup_s": untraced["setup_s"]}
		r.record(traced)
		stage("rounds done")
		r.layerProbes(untraced)
		if err := r.tr.write(filepath.Join(mustMkdir(filepath.Join(opt.Out, "trace")),
			fmt.Sprintf("%s-seed%d.jsonl", r.w.Name, opt.Seed))); err != nil {
			return nil, err
		}
	}
	stage("measured")
	r.runChecks()
	stage("checked")
	for _, e := range r.checkErrs {
		fmt.Fprintln(opt.Log, "perfbench: check failed:", e)
	}
	res := &result{Correct: len(r.checkErrs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if opt.Trace {
		res.Metrics = r.layer
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}

func mustMkdir(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

// runner holds one run's inputs, servers, tallies and metrics.
type runner struct {
	opt options
	w   workload
	dir string
	tr  *tracer // nil when untraced

	g, b     *bitmat.Matrix // the generated matrix and its leading build slice
	ldbmPath string
	env      *serveEnv
	or       *oracle

	attempted, failed int64
	checkErrs         []string
	e2e, layer        map[string]metric

	// Outputs the correctness checks read after the phases.
	streamRows  map[int][]float64
	memStore    []byte
	oocPath     string
	sparsePath  string
	sparseBytes int64
	// Per-phase medians reused by the traced probes.
	med map[string]float64
}

func (r *runner) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

func (r *runner) fail(what string, err error) {
	r.failed++
	fmt.Fprintf(r.opt.Log, "perfbench: %s: %v\n", what, err)
}

func (r *runner) put(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }
func (r *runner) putLayer(name, unit string, v float64) {
	r.layer[name] = metric{v, unit}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile returns the q-quantile of xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}
