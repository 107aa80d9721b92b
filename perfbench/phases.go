package main

import (
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
)

// rounds is the number of rounds a measuring window is cut into. Every
// round runs every phase for its share of the round, so each metric's
// median samples the whole window rather than one contiguous slice of
// it: on a shared host, memory-bound repetitions of identical work vary
// by up to 2× over a few seconds while an ALU-bound loop stays within 5%.
const rounds = 10

// clients is the number of closed-loop client goroutines of the serving
// phases, all in the benchmark's process: no more than the two CPUs of
// the reference host (README.md). With one client, node p99 spread twice
// as wide across seeds there as with two.
const clients = 2

// computeOp is one timed compute phase: run performs one repetition and,
// when root is a recording span, collects its counter deltas.
type computeOp struct {
	name  string
	share float64
	run   func(rep int, root *span) error
	ds    []float64
	at    []int // the round of each duration in ds
}

// roundMedians returns the op's median duration in each round it ran.
func (op *computeOp) roundMedians() []float64 {
	var meds, cur []float64
	for k, d := range op.ds {
		cur = append(cur, d)
		if k == len(op.ds)-1 || op.at[k+1] != op.at[k] {
			meds = append(meds, median(cur))
			cur = cur[:0]
		}
	}
	return meds
}

// serveOp is one closed-loop serving phase.
type serveOp struct {
	name  string
	share float64
	url   string
	seed  int64
	gen   func(rng *rand.Rand) query
	// before/after bracket every slice, so counters the program keeps
	// process-wide are differenced over this phase's slices only.
	before, after func()
	res           loadResult
}

// phaseSet is every phase with its own measurements. A traced run keeps
// two sets, one measured with tracing off and one with it on, and
// alternates their rounds so that both see the same host conditions.
type phaseSet struct {
	traced  bool
	compute []*computeOp
	serving []*serveOp
	layers  layerDeltas
	rounds  int // rounds run so far
}

// newPhaseSet builds the phases and runs each once untimed: a warm-up
// (the stream warm-up also captures the rows the checks compare).
func (r *runner) newPhaseSet(traced bool) *phaseSet {
	ps := &phaseSet{traced: traced, layers: layerDeltas{}}
	ps.compute = r.computeOps(ps.layers, traced)
	ps.serving = r.serveOps(ps.layers, traced)
	for _, op := range ps.compute {
		r.attempted++
		if err := op.run(-1, nil); err != nil {
			r.fail(op.name+" warm-up", err)
		}
	}
	for _, op := range ps.serving {
		r.warm(op.url, 50, op.gen)
	}
	return ps
}

// round runs one round of the set: each compute phase repeats, with a
// garbage collection before each repetition, for its share of the round
// (at least once), and each serving phase runs its closed loop for its
// share.
func (r *runner) round(ps *phaseSet, round time.Duration) {
	if r.tr != nil {
		r.tr.on.Store(ps.traced)
		defer r.tr.on.Store(false)
	}
	k := ps.rounds
	ps.rounds++
	for _, op := range ps.compute {
		// Repeat while the next repetition is expected to end within the
		// slice, so a round lasts as long as planned on average.
		slice := time.Duration(op.share * float64(round))
		var last time.Duration
		for t0 := time.Now(); len(op.ds) <= k || time.Since(t0)+last/2 < slice; {
			runtime.GC()
			root := r.tr.begin("op."+op.name, 0, r.tr.newRequest())
			start := time.Now()
			err := op.run(k, root)
			d := time.Since(start)
			r.tr.end(root)
			r.attempted++
			if err != nil {
				r.fail(op.name, err)
				break
			}
			op.ds = append(op.ds, d.Seconds())
			op.at = append(op.at, k)
			last = d
		}
	}
	for _, op := range ps.serving {
		runtime.GC()
		op.before()
		r.closedLoop(op.name, op.url, time.Duration(op.share*float64(round)), op.seed, op.gen, &op.res)
		op.after()
	}
}

func trianglePairs(n int) float64 { return float64(n) * float64(n+1) / 2 }

// bandPairs counts the pairs i ≤ j ≤ i+band of n SNPs.
func bandPairs(n, band int) float64 {
	var p float64
	for i := 0; i < n; i++ {
		p += float64(min(n-1, i+band) - i + 1)
	}
	return p
}

// layerDeltas collects counter deltas (one per repetition or slice) for
// the traced per-layer metrics.
type layerDeltas map[string][]float64

func (d layerDeltas) add(name string, v float64) { d[name] = append(d[name], v) }

func (r *runner) sparseOptions() ldsparse.BuildOptions {
	return ldsparse.BuildOptions{TileSize: r.w.SparseTile, Threshold: r.w.Tau, Banded: true, Band: r.w.Band, LD: oneThread}
}

// computeOps builds the four compute phases over this setup's inputs. A
// traced set also runs, right after each store build, the Exact scan of
// the same shape that the build rides, at half the build's share: a
// store's encode time is its build's median minus the scan's, taken per
// round so that both medians see the same host conditions.
func (r *runner) computeOps(layers layerDeltas, traced bool) []*computeOp {
	w := r.w
	stream := core.StreamOptions{Options: oneThread, Triangular: true}
	stream.FastR2 = true
	rows := r.sampleRows(r.g.SNPs)
	mf := &memFile{}
	r.oocPath = filepath.Join(r.dir, "ooc.ldts")
	r.sparsePath = filepath.Join(r.dir, "sparse.ldss")
	ops := []*computeOp{
		{
			// All-pairs r² over G through core.Stream: triangular, the
			// fast-r² epilogue, one thread — the ldcalc path.
			name: "stream", share: w.Share[phStream],
			run: func(rep int, root *span) error {
				var capture map[int][]float64
				if rep < 0 {
					capture = map[int][]float64{}
				}
				before := blis.ReadStats()
				sp := r.tr.child("core.Stream", root)
				t0 := time.Now()
				err := core.Stream(r.g, stream, func(i, j0 int, row []float64) {
					if capture != nil && rows[i] {
						capture[i] = append([]float64(nil), row...)
					}
				})
				wall := time.Since(t0).Seconds()
				r.tr.end(sp)
				if capture != nil {
					r.streamRows = capture
				}
				if root != nil {
					after := blis.ReadStats()
					gemm := float64(after.Nanos-before.Nanos) / 1e9
					layers.add("gemm", gemm)
					layers.add("epi", float64(after.EpilogueNanos-before.EpilogueNanos)/1e9)
					layers.add("visit", wall-gemm)
					layers.add("arena_gets", float64(after.ArenaGets-before.ArenaGets))
					layers.add("arena_misses", float64(after.ArenaMisses-before.ArenaMisses))
				}
				return err
			},
		},
		{
			// The Exact dense LDTS build of B into an in-memory
			// io.WriteSeeker (no disk): ldstore.Build.
			name: "build", share: w.Share[phBuild],
			run: func(rep int, root *span) error {
				mf.reset()
				sp := r.tr.child("ldstore.Build", root)
				st, err := ldstore.Build(mf, r.b, ldstore.BuildOptions{TileSize: w.Tile, LD: oneThread})
				r.tr.end(sp)
				if err == nil && rep < 0 {
					r.memStore = append([]byte(nil), mf.buf...)
					layers.add("file_bytes", float64(st.FileBytes))
				}
				return err
			},
		},
		{
			// The same dense build from the .ldbm opened windowed
			// (bitmat.OpenFile(…, false)): ldstore.BuildFileFromSource.
			name: "ooc_build", share: w.Share[phOOC],
			run: func(rep int, root *span) error {
				src, err := bitmat.OpenFile(r.ldbmPath, false)
				if err != nil {
					return err
				}
				defer src.Close()
				before := blis.ReadStats()
				var m0, m1 runtime.MemStats
				if root != nil {
					runtime.ReadMemStats(&m0)
				}
				sp := r.tr.child("ldstore.BuildFileFromSource", root)
				t0 := time.Now()
				_, err = ldstore.BuildFileFromSource(r.oocPath, src, ldstore.SourceBuildOptions{
					BuildOptions: ldstore.BuildOptions{TileSize: w.Tile, LD: oneThread},
				})
				wall := time.Since(t0).Seconds()
				r.tr.end(sp)
				if root != nil {
					runtime.ReadMemStats(&m1)
					after := blis.ReadStats()
					stall := float64(after.PrefetchStallNanos-before.PrefetchStallNanos) / 1e9
					bytes := float64(after.PanelBytesRead - before.PanelBytesRead)
					layers.add("stall", stall)
					layers.add("stall_share", stall/wall)
					layers.add("panels", float64(after.PanelsRead-before.PanelsRead))
					layers.add("panel_bytes", bytes)
					layers.add("panel_bytes_per_s", bytes/wall)
					layers.add("ooc_alloc", float64(m1.TotalAlloc-m0.TotalAlloc))
				}
				return err
			},
		},
		{
			// The banded, thresholded LDSS build of B from the windowed
			// .ldbm: ldsparse.BuildFileFromSource.
			name: "sparse_build", share: w.Share[phSparse],
			run: func(rep int, root *span) error {
				src, err := bitmat.OpenFile(r.ldbmPath, false)
				if err != nil {
					return err
				}
				defer src.Close()
				before := blis.ReadStats()
				sp := r.tr.child("ldsparse.BuildFileFromSource", root)
				st, err := ldsparse.BuildFileFromSource(r.sparsePath, src, ldsparse.SourceBuildOptions{BuildOptions: r.sparseOptions()})
				r.tr.end(sp)
				if err == nil && rep < 0 {
					r.sparseBytes = st.FileBytes
				}
				if root != nil {
					layers.add("band_skipped", float64(blis.ReadStats().BandCellsSkipped-before.BandCellsSkipped))
				}
				return err
			},
		},
	}
	if !traced {
		return ops
	}
	dense := core.StreamOptions{Options: oneThread, Triangular: true, Exact: true, StripeRows: w.Tile}
	banded := core.StreamOptions{Options: oneThread, Triangular: true, Exact: true, StripeRows: w.SparseTile, Banded: true, Band: w.Band}
	buildScan := &computeOp{
		name: "build_scan", share: w.Share[phBuild] / 2,
		run: func(rep int, root *span) error {
			sp := r.tr.child("core.Stream", root)
			err := core.Stream(r.b, dense, func(int, int, []float64) {})
			r.tr.end(sp)
			return err
		},
	}
	sparseScan := &computeOp{
		name: "sparse_scan", share: w.Share[phSparse] / 2,
		run: func(rep int, root *span) error {
			src, err := bitmat.OpenFile(r.ldbmPath, false)
			if err != nil {
				return err
			}
			defer src.Close()
			sp := r.tr.child("core.StreamSource", root)
			err = core.StreamSource(src, banded, func(int, int, []float64) {})
			r.tr.end(sp)
			return err
		},
	}
	return []*computeOp{ops[0], ops[1], buildScan, ops[2], ops[3], sparseScan}
}

// serveOps builds the serving phases: the lookup mix against the node and
// through the coordinator, then sparse operators with distinct vectors
// against each.
func (r *runner) serveOps(layers layerDeltas, traced bool) []*serveOp {
	env, w := r.env, r.w
	lookups := func(rng *rand.Rand) query { return env.lookupQuery(rng, r.b.SNPs) }
	// The two sets of a traced run draw different requests and vectors,
	// or the second would find the first's answers in the result cache.
	salt := r.opt.Seed * 1_000_003
	if traced {
		salt += 500_009
	}
	ob := newOperatorBodies(rand.New(rand.NewSource(salt+99)), r.b.SNPs)
	operators := func(rng *rand.Rand) query { return ob.query(rng.Intn(2) == 1) }
	var st0 ldstore.Stats
	var ms0 runtime.MemStats
	var cv0 coordVars
	none := func() {}
	node := &serveOp{name: "node", share: w.Share[phNode], url: env.node.url, gen: lookups, before: none, after: none}
	clusterOp := &serveOp{name: "cluster", share: w.Share[phCluster], url: env.front.url, gen: lookups, before: none, after: none}
	matvec := &serveOp{name: "matvec", share: w.Share[phMatVec] / 2, url: env.node.url, gen: operators, before: none, after: none}
	clusterMatvec := &serveOp{name: "cluster_matvec", share: w.Share[phMatVec] / 2, url: env.front.url, gen: operators, before: none, after: none}
	if traced {
		node.before = func() { st0 = ldstore.ReadStats(); runtime.ReadMemStats(&ms0) }
		node.after = func() {
			st1 := ldstore.ReadStats()
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			layers.add("store_hits", float64(st1.CacheHits-st0.CacheHits))
			layers.add("store_lookups", float64(st1.CacheHits-st0.CacheHits+st1.CacheMisses-st0.CacheMisses))
			layers.add("store_read", float64(st1.BytesRead-st0.BytesRead))
			layers.add("store_served", float64(st1.BytesServed-st0.BytesServed))
			layers.add("gc_pause", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e9)
		}
		clusterOp.before = func() {
			var err error
			if cv0, err = r.coordinatorVars(); err != nil {
				r.check(false, "reading coordinator vars: %v", err)
			}
		}
		clusterOp.after = func() {
			cv1, err := r.coordinatorVars()
			if err != nil {
				r.check(false, "reading coordinator vars: %v", err)
				return
			}
			layers.add("co_requests", float64(cv1.requests()-cv0.requests()))
			layers.add("co_hits", float64(cv1.CacheHits-cv0.CacheHits))
			layers.add("co_lookups", float64(cv1.CacheHits-cv0.CacheHits+cv1.CacheMisses-cv0.CacheMisses))
			layers.add("co_shard_calls", float64(cv1.sum("requests")-cv0.sum("requests")))
			layers.add("co_hedges", float64(cv1.sum("hedges")-cv0.sum("hedges")))
			layers.add("co_retries", float64(cv1.sum("retries")-cv0.sum("retries")))
		}
	}
	ops := []*serveOp{node, clusterOp, matvec, clusterMatvec}
	for k, op := range ops {
		op.seed = salt + int64(k)*101
	}
	return ops
}

// record turns the set's measurements into the end-to-end metrics and, for
// the traced set, the per-layer ones.
func (r *runner) record(ps *phaseSet) {
	compute, serving, layers := ps.compute, ps.serving, ps.layers
	n := r.b.SNPs
	pairs := map[string]float64{
		"stream":       trianglePairs(r.g.SNPs),
		"build":        trianglePairs(n),
		"ooc_build":    trianglePairs(n),
		"sparse_build": bandPairs(n, r.w.Band),
	}
	names := map[string]string{
		"stream": "ld_pairs_per_s", "build": "build_pairs_per_s",
		"ooc_build": "ooc_build_pairs_per_s", "sparse_build": "sparse_build_pairs_per_s",
	}
	byName := map[string]*computeOp{}
	for _, op := range compute {
		byName[op.name] = op
		if name, ok := names[op.name]; ok {
			m := median(op.ds)
			r.med[op.name+"_s"] = m
			r.put(name, "pairs/s", pairs[op.name]/m)
		}
	}
	r.put("sparse_store_bytes", "bytes", float64(r.sparseBytes))
	for _, op := range serving {
		switch op.name {
		case "node", "cluster":
			r.put(op.name+"_qps", "1/s", median(op.res.rates))
			r.put(op.name+"_p50_ms", "ms", 1e3*median(op.res.lat))
			r.put(op.name+"_p99_ms", "ms", 1e3*quantile(op.res.lat, 0.99))
		default:
			r.put(op.name+"_per_s", "1/s", median(op.res.rates))
		}
		if op.name == "node" {
			var region []float64
			for k, lat := range op.res.lat {
				if op.res.kinds[k] == qRegion {
					region = append(region, lat)
				}
			}
			r.med["node_region_s"] = median(region)
		}
	}
	if !ps.traced {
		return
	}
	gemm, epi := median(layers["gemm"]), median(layers["epi"])
	r.putLayer("core.stream_s", "s", r.med["stream_s"])
	r.putLayer("core.visit_overhead_s", "s", median(layers["visit"]))
	r.putLayer("blis.gemm_s", "s", gemm)
	r.putLayer("blis.epilogue_s", "s", epi)
	r.putLayer("blis.epilogue_share", "ratio", epi/gemm)
	r.putLayer("blis.pack_kernel_s", "s", gemm-epi)
	r.putLayer("blis.arena_hit_rate", "ratio", 1-sum(layers["arena_misses"])/max(sum(layers["arena_gets"]), 1))
	r.putLayer("blis.band_cells_skipped", "count", median(layers["band_skipped"]))
	r.putLayer("core.prefetch_stall_s", "s", median(layers["stall"]))
	r.putLayer("core.prefetch_stall_share", "ratio", median(layers["stall_share"]))
	r.putLayer("bitmat.panels_read", "count", median(layers["panels"]))
	r.putLayer("bitmat.panel_bytes_read", "bytes", median(layers["panel_bytes"]))
	r.putLayer("bitmat.panel_read_bytes_per_s", "bytes/s", median(layers["panel_bytes_per_s"]))
	r.putLayer("mem.ooc_build_alloc_bytes", "bytes", median(layers["ooc_alloc"]))
	r.putLayer("ldstore.file_bytes", "bytes", median(layers["file_bytes"]))
	r.putLayer("ldstore.encode_s", "s", encodeTime(byName["build"], byName["build_scan"]))
	r.putLayer("ldsparse.encode_s", "s", encodeTime(byName["sparse_build"], byName["sparse_scan"]))
	r.putLayer("ldstore.cache_hit_rate", "ratio", sum(layers["store_hits"])/max(sum(layers["store_lookups"]), 1))
	r.putLayer("ldstore.read_amplification", "ratio", sum(layers["store_read"])/max(sum(layers["store_served"]), 1))
	r.putLayer("gc.pause_s", "s", sum(layers["gc_pause"]))
	reqs := max(sum(layers["co_requests"]), 1)
	r.putLayer("cluster.result_cache_hit_rate", "ratio", sum(layers["co_hits"])/max(sum(layers["co_lookups"]), 1))
	r.putLayer("cluster.shard_calls_per_request", "ratio", sum(layers["co_shard_calls"])/reqs)
	r.putLayer("cluster.hedges_per_request", "ratio", sum(layers["co_hedges"])/reqs)
	r.putLayer("cluster.retries", "count", sum(layers["co_retries"]))
}

// encodeTime is the median over rounds of the build's median duration
// minus the scan's in the same round.
func encodeTime(build, scan *computeOp) float64 {
	b, s := build.roundMedians(), scan.roundMedians()
	diffs := make([]float64, min(len(b), len(s)))
	for k := range diffs {
		diffs[k] = b[k] - s[k]
	}
	return median(diffs)
}

// coordVars is the slice of the coordinator's /debug/vars the benchmark
// reads.
type coordVars struct {
	Requests    map[string]int64          `json:"requests"`
	CacheHits   int64                     `json:"result_cache_hits"`
	CacheMisses int64                     `json:"result_cache_misses"`
	Shards      map[string]map[string]any `json:"shards"`
}

func (v coordVars) requests() int64 {
	var n int64
	for _, c := range v.Requests {
		n += c
	}
	return n
}

// sum adds a numeric per-shard counter over every shard.
func (v coordVars) sum(key string) int64 {
	var n int64
	for _, s := range v.Shards {
		if f, ok := s[key].(float64); ok {
			n += int64(f)
		}
	}
	return n
}

func (r *runner) coordinatorVars() (coordVars, error) {
	var v coordVars
	body, err := r.env.fetch(r.env.front.url, query{method: "GET", path: "/debug/vars"}, nil)
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(body, &v)
}

// memFile is an in-memory io.WriteSeeker whose buffer is reused across
// builds.
type memFile struct {
	buf []byte
	pos int64
}

func (m *memFile) reset() { m.buf, m.pos = m.buf[:0], 0 }

func (m *memFile) Write(p []byte) (int, error) {
	if end := m.pos + int64(len(p)); end > int64(len(m.buf)) {
		if end > int64(cap(m.buf)) {
			nb := make([]byte, end, max(end, 2*int64(cap(m.buf))))
			copy(nb, m.buf)
			m.buf = nb
		}
		m.buf = m.buf[:end]
	}
	copy(m.buf[m.pos:], p)
	m.pos += int64(len(p))
	return len(p), nil
}

func (m *memFile) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		off += m.pos
	case io.SeekEnd:
		off += int64(len(m.buf))
	default:
		return 0, errors.New("memFile: bad whence")
	}
	if off < 0 {
		return 0, errors.New("memFile: negative offset")
	}
	m.pos = off
	return off, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
