package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"ldgemm/internal/blis"
	"ldgemm/internal/core"
	"ldgemm/internal/harness"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popcount"
	"ldgemm/internal/server"
)

// probeReps is the repetition count of each traced per-layer probe.
const probeReps = 3

// sampleRows picks the stream rows whose values the checks compare with
// the oracle: the first, the last, and six drawn from the seed.
func (r *runner) sampleRows(n int) map[int]bool {
	rng := rand.New(rand.NewSource(r.opt.Seed*13 + 5))
	rows := map[int]bool{0: true, n - 1: true}
	for len(rows) < min(n, 8) {
		rows[rng.Intn(n)] = true
	}
	return rows
}

// probe times fn probeReps times (after one warm-up, with a GC before
// each) and returns the median seconds. Probes are not operations of the
// workload and are not counted in attempted.
func probe(fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	var ds []float64
	for k := 0; k < probeReps; k++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// timeEach returns the median of fn's durations over calls, in seconds.
func timeEach(calls int, fn func(k int) error) (float64, error) {
	ds := make([]float64, 0, calls)
	for k := 0; k < calls; k++ {
		t0 := time.Now()
		if err := fn(k); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// layerProbes measures the per-layer metrics that the traced phases do not
// yield directly, each timed from outside around one layer's public
// function, and the tracing overhead against the untraced rounds.
func (r *runner) layerProbes(untraced map[string]metric) {
	if err := r.kernelProbes(); err != nil {
		r.check(false, "kernel probes: %v", err)
	}
	if err := r.storeProbes(); err != nil {
		r.check(false, "store probes: %v", err)
	}
	if err := r.serverProbes(); err != nil {
		r.check(false, "server probes: %v", err)
	}
	r.putLayer("trace.overhead_frac", "ratio", traceOverhead(untraced, r.e2e))
	names := make([]string, 0, len(untraced))
	for name := range untraced {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(r.opt.Log, "perfbench: %-26s untraced %-12.5g traced %-12.5g %s\n", name, untraced[name].Value, r.e2e[name].Value, untraced[name].Unit)
	}
	r.putLayer("trace.layer_self_share", "ratio", r.tr.layerSelfShare())
	r.putLayer("trace.spans", "count", float64(r.tr.count()))
}

// kernelProbes: the count-only SYRK on the build slice (no epilogue), the
// L1-resident rate of the popcount engine the driver dispatched, the
// scalar calibration loop, and the two-thread stream speedup.
func (r *runner) kernelProbes() error {
	b := r.b
	c := make([]uint32, b.SNPs*b.SNPs)
	var cells uint64
	s, err := probe(func() error {
		before := blis.ReadStats()
		err := blis.Syrk(blis.Config{Threads: 1}, b, c, b.SNPs, false)
		cells = blis.ReadStats().Cells - before.Cells
		return err
	})
	if err != nil {
		return err
	}
	rate := float64(cells) / s
	r.putLayer("kernel.triples_per_s", "triples/s", rate)
	peak := enginePeak(blis.ReadStats().Popcount, b.Words)
	r.putLayer("kernel.engine_peak_triples_per_s", "triples/s", peak)
	r.putLayer("kernel.peak_frac", "ratio", rate/peak)
	r.putLayer("kernel.calibrated_peak_triples_per_s", "triples/s", harness.CalibratePeak(300*time.Millisecond))

	two := core.StreamOptions{Options: core.Options{Blis: blis.Config{Threads: 2}, FastR2: true}, Triangular: true}
	s2, err := probe(func() error { return core.Stream(r.g, two, func(int, int, []float64) {}) })
	if err != nil {
		return err
	}
	r.putLayer("blis.speedup_2t", "ratio", r.med["stream_s"]/s2)
	return nil
}

// enginePeak times the AND-count engine named by the driver's stats on two
// L1-resident k-word vectors and returns word triples per second.
func enginePeak(engine string, k int) float64 {
	count := popcount.AndCount
	switch {
	case strings.HasPrefix(engine, "vector"):
		count = popcount.AndCountVector
	case engine == "csa":
		count = popcount.AndCountCSA
	}
	a, b := make([]uint64, k), make([]uint64, k)
	for i := range a {
		a[i], b[i] = 0x9e3779b97f4a7c15*uint64(i+1), 0xbf58476d1ce4e5b9*uint64(i+3)
	}
	best, sink := 0.0, 0
	for round := 0; round < 5; round++ {
		calls := max(1, (1<<24)/k)
		t0 := time.Now()
		for c := 0; c < calls; c++ {
			sink += count(a, b)
		}
		if rate := float64(calls*k) / time.Since(t0).Seconds(); rate > best {
			best = rate
		}
	}
	peakSink = sink
	return best
}

var peakSink int

// storeProbes: direct Region/At/Top calls, with the lookup mix's regions
// and top sizes, on a fresh LDTS reader and
// direct MatVec calls on a fresh LDSS reader, with the stores' counters
// differenced around the matvecs.
func (r *runner) storeProbes() error {
	w, env, n := r.w, r.env, r.b.SNPs
	st, err := ldstore.Open(env.ldtsPath, ldstore.Options{CacheTiles: w.CacheTiles})
	if err != nil {
		return err
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(r.opt.Seed + 4242))
	region, err := timeEach(400, func(k int) error {
		g := env.mixRegion(rng, k, n)
		_, err := st.Region(g.start, g.end)
		return err
	})
	if err != nil {
		return err
	}
	pair, err := timeEach(400, func(int) error { _, err := st.At(rng.Intn(n), rng.Intn(n)); return err })
	if err != nil {
		return err
	}
	top, err := timeEach(40, func(k int) error { _, err := st.Top(5 + k); return err })
	if err != nil {
		return err
	}
	r.putLayer("ldstore.region_us", "us", 1e6*region)
	r.putLayer("ldstore.pair_us", "us", 1e6*pair)
	r.putLayer("ldstore.top_us", "us", 1e6*top)

	sp, err := ldsparse.Open(env.ldssPath, ldsparse.Options{CacheTiles: w.CacheTiles})
	if err != nil {
		return err
	}
	defer sp.Close()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if _, err := sp.MatVec(x); err != nil {
		return err
	}
	s0 := ldsparse.ReadStats()
	const calls = 20
	mv, err := timeEach(calls, func(k int) error { x[0] = float64(k); _, err := sp.MatVec(x); return err })
	if err != nil {
		return err
	}
	s1 := ldsparse.ReadStats()
	r.putLayer("ldsparse.matvec_us", "us", 1e6*mv)
	r.putLayer("ldsparse.entries_per_s", "1/s", float64(s1.EntriesVisited-s0.EntriesVisited)/(float64(s1.MatVecNanos-s0.MatVecNanos)/1e9))
	r.putLayer("ldsparse.tile_lookups_per_matvec", "count", float64(s1.CacheHits-s0.CacheHits+s1.CacheMisses-s0.CacheMisses)/calls)
	r.putLayer("ldsparse.tiles_decoded_per_matvec", "count", float64(s1.TilesRead-s0.TilesRead)/calls)
	r.putLayer("ldsparse.bytes_read_per_matvec", "bytes", float64(s1.BytesRead-s0.BytesRead)/calls)
	info := sp.Info()
	r.putLayer("ldsparse.nonempty_tile_frac", "ratio", 1-float64(info.EmptyTiles)/float64(info.Tiles))
	return nil
}

// serverProbes: the node's handler called in-process through a recorder
// (no socket) with the lookup mix's regions, the JSON encoding of those
// answers alone, the loopback transport as the difference, and the coordinator's overhead over the
// node on region queries that no cache can answer.
func (r *runner) serverProbes() error {
	env, n := r.env, r.b.SNPs
	rng := rand.New(rand.NewSource(r.opt.Seed + 777))
	var answers []server.RegionResponse
	handler, err := timeEach(400, func(k int) error {
		q := env.mixRegion(rng, k, n).query()
		rec := httptest.NewRecorder()
		env.nodeSrv.ServeHTTP(rec, httptest.NewRequest(q.method, q.path, nil))
		if rec.Code != 200 {
			return fmt.Errorf("region status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if len(answers) < 40 {
			var resp server.RegionResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				return err
			}
			answers = append(answers, resp)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ob := newOperatorBodies(rng, n)
	matvec, err := timeEach(20, func(k int) error {
		q := ob.query(k%2 == 1)
		rec := httptest.NewRecorder()
		env.nodeSrv.ServeHTTP(rec, httptest.NewRequest(q.method, q.path, bytes.NewReader(q.body)))
		if rec.Code != 200 {
			return fmt.Errorf("%s status %d: %s", q.path, rec.Code, rec.Body.Bytes())
		}
		return nil
	})
	if err != nil {
		return err
	}
	encode, err := timeEach(400, func(k int) error { _, err := json.Marshal(answers[k%len(answers)]); return err })
	if err != nil {
		return err
	}
	r.putLayer("server.region_us", "us", 1e6*handler)
	r.putLayer("server.matvec_us", "us", 1e6*matvec)
	r.putLayer("server.encode_us", "us", 1e6*encode)
	r.putLayer("server.transport_us", "us", 1e6*(r.med["node_region_s"]-handler))

	// Width probeWidth never occurs in the lookup mix, and every start is
	// distinct, so neither the result cache nor coalescing answers.
	var diffs []float64
	for k := 0; k < 60; k++ {
		s := (k * 7919) % (n - probeWidth + 1)
		q := region{s, s + probeWidth}.query()
		t0 := time.Now()
		if _, err := env.fetch(env.node.url, q, nil); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := env.fetch(env.front.url, q, nil); err != nil {
			return err
		}
		diffs = append(diffs, time.Since(t1).Seconds()-t1.Sub(t0).Seconds())
	}
	r.putLayer("cluster.overhead_ms", "ms", 1e3*median(diffs))
	return nil
}

// lowerIsBetter names the end-to-end metrics whose smaller values are
// better.
var lowerIsBetter = map[string]bool{
	"setup_s": true, "sparse_store_bytes": true,
	"node_p50_ms": true, "node_p99_ms": true, "cluster_p50_ms": true, "cluster_p99_ms": true,
}

// traceOverhead is the median, over the timed end-to-end metrics, of how
// much worse the traced rounds read than the untraced ones (negative:
// better, which only noise can make them).
func traceOverhead(untraced, traced map[string]metric) float64 {
	var worse []float64
	for name, u := range untraced {
		t, ok := traced[name]
		if !ok || name == "setup_s" || name == "sparse_store_bytes" || u.Value == 0 {
			continue
		}
		if lowerIsBetter[name] {
			worse = append(worse, t.Value/u.Value-1)
		} else {
			worse = append(worse, u.Value/t.Value-1)
		}
	}
	return median(worse)
}
