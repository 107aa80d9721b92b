package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/blis"
	"ldgemm/internal/cluster"
	"ldgemm/internal/core"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/popsim"
	"ldgemm/internal/server"
)

// oneThread is the compute configuration of every timed build and scan:
// on a small shared host two-thread medians spread several times wider
// than one-thread medians.
var oneThread = core.Options{Blis: blis.Config{Threads: 1}}

// local is one in-process HTTP server on a loopback port.
type local struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLocal(h http.Handler) (*local, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &local{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

func (l *local) close() {
	l.srv.Close()
	<-l.done
}

// serveEnv is the serving stack of one setup: a node and a 2-strip ×
// 1-replica cluster over the build slice, each server with its own store
// instances (so LRU state is per server), all on loopback.
type serveEnv struct {
	dir         string
	ldtsPath    string
	ldssPath    string
	nodeSrv     *server.Server
	nodeSparse  *ldsparse.Store
	node, front *local
	shards      [2]*local
	co          *cluster.Coordinator
	closers     []io.Closer
	hc          *http.Client
	hot         []region // the hot set of region queries
}

// setupMedian sets the serving stack up three times from scratch and
// reports the median: set-up is generating the inputs, writing the
// .ldbm, building the served stores and booting node and cluster.
func (r *runner) setupMedian() error {
	var times []float64
	for k := 0; k < 3; k++ {
		if r.env != nil {
			r.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := r.setup(filepath.Join(r.dir, fmt.Sprintf("setup%d", k))); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.put("setup_s", "s", median(times))
	return nil
}

func (r *runner) setup(dir string) error {
	w := r.w
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := w.Mosaic
	cfg.Seed = r.opt.Seed
	g, err := popsim.Mosaic(w.SNPs, w.Samples, cfg)
	if err != nil {
		return err
	}
	b, err := bitmat.FromWords(w.BuildSNPs, w.Samples, g.Data[:w.BuildSNPs*g.Words])
	if err != nil {
		return err
	}
	r.g, r.b = g, b
	r.ldbmPath = filepath.Join(dir, "b.ldbm")
	if err := bitmat.WriteFile(r.ldbmPath, b); err != nil {
		return err
	}
	env := &serveEnv{dir: dir}
	r.env = env
	env.ldtsPath = filepath.Join(dir, "serve.ldts")
	if _, err := ldstore.BuildFile(env.ldtsPath, b, ldstore.BuildOptions{TileSize: w.ServeTile, LD: oneThread}); err != nil {
		return err
	}
	env.ldssPath = filepath.Join(dir, "serve.ldss")
	if _, err := ldsparse.BuildFile(env.ldssPath, b, ldsparse.BuildOptions{
		TileSize: w.SparseTile, Threshold: w.Tau, Banded: true, Band: w.Band, LD: oneThread,
	}); err != nil {
		return err
	}
	newServer := func(lo, hi int) (*server.Server, *ldsparse.Store, error) {
		st, err := ldstore.Open(env.ldtsPath, ldstore.Options{CacheTiles: w.CacheTiles})
		if err != nil {
			return nil, nil, err
		}
		env.closers = append(env.closers, st)
		sp, err := ldsparse.Open(env.ldssPath, ldsparse.Options{CacheTiles: w.CacheTiles})
		if err != nil {
			return nil, nil, err
		}
		env.closers = append(env.closers, sp)
		return server.New(b, server.Config{
			MaxRegionSNPs: 2 * probeWidth, MaxTopK: 100, Threads: 1,
			ShardStart: lo, ShardEnd: hi, Store: st, Sparse: sp,
		}), sp, nil
	}
	if env.nodeSrv, env.nodeSparse, err = newServer(0, 0); err != nil {
		return err
	}
	if env.node, err = serveLocal(r.traced("server.ServeHTTP", env.nodeSrv)); err != nil {
		return err
	}
	var specs []string
	mid := b.SNPs / 2
	for s, rng := range [2][2]int{{0, mid}, {mid, b.SNPs}} {
		shard, _, err := newServer(rng[0], rng[1])
		if err != nil {
			return err
		}
		if env.shards[s], err = serveLocal(r.traced("shard.ServeHTTP", shard)); err != nil {
			return err
		}
		specs = append(specs, env.shards[s].url)
	}
	env.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: 60 * time.Second}
	env.co, err = cluster.New(context.Background(), specs, cluster.Config{Client: env.hc})
	if err != nil {
		return err
	}
	if env.front, err = serveLocal(r.traced("cluster.ServeHTTP", env.co)); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.opt.Seed*7919 + 17))
	// The hot loci come from the seed, but their widths are spread evenly
	// over the mix's range: JSON encoding, most of a region's cost, grows
	// with the width squared, and eight drawn widths made node p50 follow
	// the seed (0.31 to 0.54 ms over seeds 1..10).
	for k := 0; k < w.HotSet; k++ {
		start := rng.Intn(b.SNPs - probeWidth + 1)
		width := minRegionWidth + (2*k+1)*(probeWidth-minRegionWidth)/(2*w.HotSet)
		env.hot = append(env.hot, region{start, start + width})
	}
	return nil
}

func (r *runner) teardown() {
	env := r.env
	if env == nil {
		return
	}
	for _, l := range []*local{env.front, env.node, env.shards[0], env.shards[1]} {
		if l != nil {
			l.close()
		}
	}
	if env.co != nil {
		env.co.Close()
	}
	if env.hc != nil {
		env.hc.CloseIdleConnections()
	}
	for _, c := range env.closers {
		c.Close()
	}
	os.RemoveAll(env.dir)
	r.env = nil
}

// traced wraps a handler the benchmark mounts on a listener so that, in a
// traced run, every request it serves is recorded as a span whose parent
// and request id the client sent in headers.
func (r *runner) traced(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.tr.enabled() {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseInt(req.Header.Get("X-Parent-Span"), 10, 64)
		reqID, _ := strconv.ParseInt(req.Header.Get("X-Request-ID"), 10, 64)
		sp := r.tr.begin(name, parent, reqID)
		h.ServeHTTP(w, req)
		r.tr.end(sp)
	})
}

// query is one lookup or operator request.
type query struct {
	method, path string
	body         []byte
	kind         int // qRegion, qPair, qTop, qMatVec, qScore
}

const (
	qRegion = iota
	qPair
	qTop
	qMatVec
	qScore
)

// The lookup mix is the load of ldbench's cluster benchmark
// (cmd/ldbench/cluster.go): 70% region with widths 16..63, 20% pair, 10%
// top with k 5..44. Half of the region queries repeat one of a small hot
// set, so they hit the stores' tile LRUs and the coordinator's result
// cache; the other half are uniform. The per-layer probes use regions
// probeWidth wide, a width the mix never draws.
const (
	minRegionWidth = 16
	probeWidth     = 64
)

// region is the SNP range [start, end) of a region query.
type region struct{ start, end int }

// randomRegion draws a uniform region of the lookup mix. Its start leaves
// room for a probeWidth-wide region too.
func randomRegion(rng *rand.Rand, n int) region {
	start := rng.Intn(n - probeWidth + 1)
	return region{start, start + minRegionWidth + rng.Intn(probeWidth-minRegionWidth)}
}

func (g region) query() query {
	return query{method: "GET", path: fmt.Sprintf("/api/ld/region?start=%d&end=%d&measure=r2", g.start, g.end), kind: qRegion}
}

// mixRegion draws the k-th region of a probe that follows the lookup
// mix's regions: even k from the hot set, odd k uniform.
func (env *serveEnv) mixRegion(rng *rand.Rand, k, n int) region {
	if k%2 == 0 {
		return env.hot[rng.Intn(len(env.hot))]
	}
	return randomRegion(rng, n)
}

// lookupQuery draws one request of the closed-loop lookup mix.
func (env *serveEnv) lookupQuery(rng *rand.Rand, n int) query {
	switch u := rng.Intn(20); {
	case u < 7:
		return env.hot[rng.Intn(len(env.hot))].query()
	case u < 14:
		return randomRegion(rng, n).query()
	case u < 18:
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		return query{method: "GET", path: fmt.Sprintf("/api/ld?i=%d&j=%d", i, j), kind: qPair}
	default:
		return query{method: "GET", path: fmt.Sprintf("/api/ld/top?k=%d", 5+rng.Intn(40)), kind: qTop}
	}
}

// operatorBodies makes sparse-operator requests cheaply: one random
// base vector is encoded once, and each request prepends a first element
// no earlier request used, so every vector is distinct (the coordinator's
// result cache never answers one) while building a body costs a copy.
type operatorBodies struct {
	tail []byte
	next atomic.Int64
}

func newOperatorBodies(rng *rand.Rand, n int) *operatorBodies {
	var b bytes.Buffer
	for i := 1; i < n; i++ {
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64))
	}
	return &operatorBodies{tail: b.Bytes()}
}

// query returns the next request, a score request when score is set.
func (ob *operatorBodies) query(score bool) query {
	first := 1 + float64(ob.next.Add(1))/(1<<20)
	q := query{method: "POST", path: "/api/sparse/matvec", kind: qMatVec}
	field := `{"x":[`
	if score {
		q.path, q.kind, field = "/api/sparse/score", qScore, `{"z":[`
	}
	body := make([]byte, 0, len(field)+24+len(ob.tail)+2)
	body = append(body, field...)
	body = strconv.AppendFloat(body, first, 'g', -1, 64)
	body = append(body, ob.tail...)
	q.body = append(body, "]}"...)
	return q
}

// fetch sends one request and reads the whole body. An answer that is not
// 200, or that the coordinator marks partial because a strip failed, is
// an error. With a recording parent span the request carries its id and request id
// so the server-side wrapper can link its span.
func (env *serveEnv) fetch(base string, q query, parent *span) ([]byte, error) {
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequest(q.method, base+q.path, body)
	if err != nil {
		return nil, err
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if parent != nil {
		req.Header.Set("X-Request-ID", strconv.FormatInt(parent.Req, 10))
		req.Header.Set("X-Parent-Span", strconv.FormatInt(parent.ID, 10))
	}
	resp, err := env.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", q.method, q.path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if failed := resp.Header.Get("X-LD-Shards-Failed"); failed != "" {
		return nil, fmt.Errorf("%s %s: partial answer, strips %s failed", q.method, q.path, failed)
	}
	return b, nil
}

// loadResult is what closed-loop slices of one phase measured.
type loadResult struct {
	lat   []float64 // per-request latency, seconds
	kinds []int
	rates []float64 // completed requests per second, one per slice
}

// closedLoop runs `clients` closed-loop clients against base for one
// slice of the budget and appends what it measured to res. Each slice
// and client draws from its own generator, seeded from seed. Each client
// draws its next request from gen (outside the timed interval) only
// after the previous one completed.
func (r *runner) closedLoop(phase, base string, budget time.Duration, seed int64, gen func(rng *rand.Rand) query, res *loadResult) {
	type sample struct {
		lat  float64
		kind int
	}
	per := make([][]sample, clients)
	var fails []error
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(len(res.rates))*7_919 + int64(c)))
			for time.Now().Before(deadline) {
				q := gen(rng)
				root := r.tr.begin("op."+phase, 0, r.tr.newRequest())
				t0 := time.Now()
				_, err := r.env.fetch(base, q, root)
				d := time.Since(t0)
				r.tr.end(root)
				if err != nil {
					mu.Lock()
					fails = append(fails, err)
					mu.Unlock()
					continue
				}
				per[c] = append(per[c], sample{d.Seconds(), q.kind})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	done := 0
	for _, ss := range per {
		for _, s := range ss {
			res.lat = append(res.lat, s.lat)
			res.kinds = append(res.kinds, s.kind)
		}
		done += len(ss)
	}
	res.rates = append(res.rates, float64(done)/elapsed.Seconds())
	r.attempted += int64(done + len(fails))
	for _, err := range fails {
		r.fail(phase, err)
	}
}

// warm sends a few requests of the phase's mix before it is timed, so
// connections are open and lazily built state exists.
func (r *runner) warm(base string, n int, gen func(rng *rand.Rand) query) {
	rng := rand.New(rand.NewSource(r.opt.Seed ^ 0x5eed))
	for k := 0; k < n; k++ {
		r.attempted++
		if _, err := r.env.fetch(base, gen(rng), nil); err != nil {
			r.fail("warm-up", err)
		}
	}
}
