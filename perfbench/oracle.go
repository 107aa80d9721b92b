package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"

	"ldgemm/internal/bitmat"
	"ldgemm/internal/ldsparse"
	"ldgemm/internal/ldstore"
	"ldgemm/internal/server"
)

// tol is the absolute tolerance between a value the program computed and
// the oracle's r² ∈ [0, 1]. The two evaluate the same formula in possibly
// different operation orders (and the fast-r² stream multiplies by
// reciprocals), so they may differ in the last few ulps, never more.
const tol = 1e-12

// oracle computes r² from the raw SNP-major words of a matrix with its own
// bit loops: p_i, p_j and p_ij are popcounts divided by the sample count.
// It shares no code with core, blis or popcount.
type oracle struct {
	m      *bitmat.Matrix
	counts []int
	kept   *keptSet // built on first use
}

func newOracle(m *bitmat.Matrix) *oracle {
	o := &oracle{m: m, counts: make([]int, m.SNPs)}
	for i := range o.counts {
		for _, w := range o.words(i) {
			o.counts[i] += bits.OnesCount64(w)
		}
	}
	return o
}

func (o *oracle) words(i int) []uint64 { return o.m.Data[i*o.m.Words : (i+1)*o.m.Words] }

func (o *oracle) r2(i, j int) float64 {
	a, b := o.words(i), o.words(j)
	c := 0
	for k := range a {
		c += bits.OnesCount64(a[k] & b[k])
	}
	n := float64(o.m.Samples)
	pi, pj, pij := float64(o.counts[i])/n, float64(o.counts[j])/n, float64(c)/n
	den := pi * (1 - pi) * pj * (1 - pj)
	if den <= 0 {
		return 0
	}
	d := pij - pi*pj
	return d * d / den
}

func near(got, want float64) bool { return math.Abs(got-want) <= tol }

// entry is one stored value of a sparse row.
type entry struct {
	j int
	v float64
}

// keptSet is the oracle's banded, thresholded matrix over the first n
// SNPs: upper[i] holds j ≥ i ascending with r² ≥ τ (and |i−j| ≤ W), lower[i]
// the mirrored j < i ascending. ambiguous[i] holds the in-band pairs whose
// r² lies within tol of τ, which either side may keep.
type keptSet struct {
	n, band       int
	tau           float64
	upper, lower  [][]entry
	ambiguous     [][]entry
	count, nAmbig int64
}

func (o *oracle) keptSet(n, band int, tau float64) *keptSet {
	if k := o.kept; k != nil && k.n == n && k.band == band && k.tau == tau {
		return k
	}
	k := &keptSet{n: n, band: band, tau: tau,
		upper: make([][]entry, n), lower: make([][]entry, n), ambiguous: make([][]entry, n)}
	for i := 0; i < n; i++ {
		for j := i; j <= min(n-1, i+band); j++ {
			v := o.r2(i, j)
			switch {
			case math.Abs(v-tau) <= tol:
				k.ambiguous[i] = append(k.ambiguous[i], entry{j, v})
				if j != i {
					k.ambiguous[j] = append(k.ambiguous[j], entry{i, v})
				}
				k.nAmbig++
			case v >= tau:
				k.upper[i] = append(k.upper[i], entry{j, v})
				if j != i {
					k.lower[j] = append(k.lower[j], entry{i, v})
				}
				k.count++
			}
		}
	}
	o.kept = k
	return k
}

// matvec is the serial reference: y[i] folds R[i][j]·x[j] over kept j in
// ascending order. slack[i] bounds how far a correct answer may differ:
// rounding of the differently-ordered value computation plus every
// ambiguous entry's whole contribution.
func (k *keptSet) matvec(x []float64) (y, slack []float64) {
	y, slack = make([]float64, k.n), make([]float64, k.n)
	for i := range y {
		var acc, mag float64
		for _, e := range k.lower[i] {
			acc += e.v * x[e.j]
			mag += math.Abs(e.v * x[e.j])
		}
		for _, e := range k.upper[i] {
			acc += e.v * x[e.j]
			mag += math.Abs(e.v * x[e.j])
		}
		s := 1e-9*mag + 1e-12
		for _, e := range k.ambiguous[i] {
			s += math.Abs(e.v * x[e.j])
		}
		y[i], slack[i] = acc, s
	}
	return y, slack
}

// runChecks verifies every output the phases produced against the oracle
// and the properties the program promises. A failed check marks the run
// incorrect.
func (r *runner) runChecks() {
	if r.or == nil {
		r.or = newOracle(r.g)
	}
	o := r.or
	rng := rand.New(rand.NewSource(r.opt.Seed*31 + 7))
	n := r.b.SNPs

	// Stream rows (triangular: row i starts at its diagonal).
	r.check(len(r.streamRows) > 0, "stream: no sampled rows captured")
	for i, row := range r.streamRows {
		if !r.checkf(len(row) == r.g.SNPs-i, "stream row %d has %d values, want %d", i, len(row), r.g.SNPs-i) {
			continue
		}
		for t, v := range row {
			if want := o.r2(i, i+t); !near(v, want) {
				r.check(false, "stream r²(%d,%d) = %v, oracle %v", i, i+t, v, want)
				break
			}
		}
	}

	// The in-memory dense store, and the out-of-core build of the same
	// slice, which must be byte-identical to it.
	if st, err := ldstore.OpenReader(bytes.NewReader(r.memStore), int64(len(r.memStore)), ldstore.Options{}); r.checkf(err == nil, "opening in-memory store: %v", err) {
		r.checkDenseStore("in-memory store", st, rng)
		st.Close()
	}
	if b, err := os.ReadFile(r.oocPath); r.checkf(err == nil, "reading out-of-core store: %v", err) {
		r.check(bytes.Equal(b, r.memStore), "out-of-core store (%d bytes) differs from the in-memory build (%d bytes)", len(b), len(r.memStore))
	}

	// Both sparse stores: the phase's out-of-core build and the served one.
	k := o.keptSet(n, r.w.Band, r.w.Tau)
	if sp, err := ldsparse.Open(r.sparsePath, ldsparse.Options{}); r.checkf(err == nil, "opening sparse store: %v", err) {
		r.checkKeepSet("sparse build", sp, k, rng)
		sp.Close()
	}
	r.checkKeepSet("served sparse store", r.env.nodeSparse, k, rng)
	r.checkServing(k, rng)
}

// checkf records a failed check and reports whether ok held.
func (r *runner) checkf(ok bool, format string, args ...any) bool {
	r.check(ok, format, args...)
	return ok
}

func (r *runner) checkDenseStore(what string, st *ldstore.Store, rng *rand.Rand) {
	o, n := r.or, st.SNPs()
	r.check(n == r.b.SNPs, "%s: %d SNPs, want %d", what, n, r.b.SNPs)
	for t := 0; t < 300; t++ {
		i, j := rng.Intn(n), rng.Intn(n)
		v, err := st.At(i, j)
		if !r.checkf(err == nil && near(v, o.r2(i, j)), "%s: At(%d,%d) = %v (%v), oracle %v", what, i, j, v, err, o.r2(i, j)) {
			return
		}
	}
	w := min(probeWidth, n)
	for t := 0; t < 2; t++ {
		s := rng.Intn(n - w + 1)
		vals, err := st.Region(s, s+w)
		if !r.checkf(err == nil && len(vals) == w*w, "%s: Region(%d,%d): %d values, %v", what, s, s+w, len(vals), err) {
			return
		}
		for a := 0; a < w; a++ {
			for b := 0; b < w; b++ {
				if want := o.r2(s+a, s+b); !near(vals[a*w+b], want) {
					r.check(false, "%s: Region(%d,%d)[%d][%d] = %v, oracle %v", what, s, s+w, a, b, vals[a*w+b], want)
					return
				}
			}
		}
	}
	top, err := st.Top(20)
	if r.checkf(err == nil, "%s: Top: %v", what, err) {
		pairs := make([]server.PairResponse, len(top))
		for t, p := range top {
			pairs[t] = server.PairResponse{I: p.I, J: p.J, R2: p.Value}
		}
		r.checkTop(what+" Top", pairs, 20, rng)
	}
}

// checkTop: k pairs with i < j, sorted strongest first, values matching
// the oracle, and no sampled pair stronger than the k-th.
func (r *runner) checkTop(what string, pairs []server.PairResponse, k int, rng *rand.Rand) {
	o, n := r.or, r.b.SNPs
	if !r.checkf(len(pairs) == min(k, n*(n-1)/2), "%s: %d pairs, want %d", what, len(pairs), k) {
		return
	}
	for t, p := range pairs {
		ok := p.I < p.J && near(p.R2, o.r2(p.I, p.J))
		if t > 0 {
			q := pairs[t-1]
			ok = ok && (q.R2 > p.R2 || q.R2 == p.R2 && (q.I < p.I || q.I == p.I && q.J < p.J))
		}
		if !r.checkf(ok, "%s: entry %d (%d,%d,%v) unsorted or off the oracle %v", what, t, p.I, p.J, p.R2, o.r2(p.I, p.J)) {
			return
		}
	}
	kth := pairs[len(pairs)-1].R2
	listed := map[[2]int]bool{}
	for _, p := range pairs {
		listed[[2]int{p.I, p.J}] = true
	}
	for t := 0; t < 2000; t++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i > j {
			i, j = j, i
		}
		if i == j || listed[[2]int{i, j}] {
			continue
		}
		if v := o.r2(i, j); v > kth+tol {
			r.check(false, "%s: pair (%d,%d) r² %v beats the k-th value %v", what, i, j, v, kth)
			return
		}
	}
}

// checkKeepSet: stored ⇔ in band and r² ≥ τ, with exact-τ ties exempt;
// stored values match the oracle; the entry count matches.
func (r *runner) checkKeepSet(what string, sp *ldsparse.Store, k *keptSet, rng *rand.Rand) {
	o, n := r.or, k.n
	r.check(sp.NNZ() >= k.count && sp.NNZ() <= k.count+k.nAmbig,
		"%s: %d entries, oracle keeps %d (+%d ties)", what, sp.NNZ(), k.count, k.nAmbig)
	probe := func(i, j int) bool {
		v, present, err := sp.Lookup(i, j)
		want := o.r2(i, j)
		inBand := abs(i-j) <= k.band
		switch {
		case err != nil:
			return r.checkf(false, "%s: Lookup(%d,%d): %v", what, i, j, err)
		case present && !near(v, want):
			return r.checkf(false, "%s: (%d,%d) stored %v, oracle %v", what, i, j, v, want)
		case math.Abs(want-k.tau) <= tol && inBand:
			return true // a tie at τ may go either way
		case present != (inBand && want >= k.tau):
			return r.checkf(false, "%s: (%d,%d) r² %v stored=%t (τ %v, band %d)", what, i, j, want, present, k.tau, k.band)
		}
		return true
	}
	for t := 0; t < 300; t++ {
		i := rng.Intn(n)
		j := min(n-1, i+rng.Intn(k.band+1))
		if !probe(i, j) || !probe(rng.Intn(n), rng.Intn(n)) {
			return
		}
		if row := k.upper[i]; len(row) > 0 && !probe(i, row[rng.Intn(len(row))].j) {
			return
		}
	}
}

// checkServing compares sampled node responses with the oracle and
// requires the cluster's answers to be byte-identical to the node's.
func (r *runner) checkServing(k *keptSet, rng *rand.Rand) {
	env, n := r.env, r.b.SNPs
	var qs []query
	for t := 0; t < 4; t++ {
		g := env.hot[t%len(env.hot)]
		if t%2 == 1 {
			g = randomRegion(rng, n)
		}
		qs = append(qs, g.query())
	}
	for t := 0; t < 3; t++ {
		qs = append(qs, query{method: "GET", path: fmt.Sprintf("/api/ld?i=%d&j=%d", rng.Intn(n), rng.Intn(n)), kind: qPair})
	}
	qs = append(qs, query{method: "GET", path: "/api/ld/top?k=20", kind: qTop})
	for t := 0; t < 2; t++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		body, _ := json.Marshal(server.MatVecRequest{X: x})
		qs = append(qs, query{method: "POST", path: "/api/sparse/matvec", body: body, kind: qMatVec})
		body, _ = json.Marshal(server.ScoreRequest{Z: x})
		qs = append(qs, query{method: "POST", path: "/api/sparse/score", body: body, kind: qScore})
	}
	for _, q := range qs {
		nb, err := env.fetch(env.node.url, q, nil)
		if !r.checkf(err == nil, "node %s: %v", q.path, err) {
			continue
		}
		cb, err := env.fetch(env.front.url, q, nil)
		if !r.checkf(err == nil, "cluster %s: %v", q.path, err) {
			continue
		}
		r.check(bytes.Equal(nb, cb), "cluster answer to %s %s is not byte-identical to the node's", q.method, q.path)
		r.checkResponse(q, nb, k, rng)
	}
}

func (r *runner) checkResponse(q query, body []byte, k *keptSet, rng *rand.Rand) {
	o := r.or
	switch q.kind {
	case qRegion:
		var resp server.RegionResponse
		if !r.checkf(json.Unmarshal(body, &resp) == nil, "decoding %s", q.path) {
			return
		}
		for a, row := range resp.Values {
			for b, v := range row {
				if want := o.r2(resp.Start+a, resp.Start+b); !near(v, want) {
					r.check(false, "%s: [%d][%d] = %v, oracle %v", q.path, a, b, v, want)
					return
				}
			}
		}
		r.check(len(resp.Values) == resp.End-resp.Start, "%s: %d rows", q.path, len(resp.Values))
	case qPair:
		var resp server.PairResponse
		if r.checkf(json.Unmarshal(body, &resp) == nil, "decoding %s", q.path) {
			r.check(near(resp.R2, o.r2(resp.I, resp.J)), "%s: r² %v, oracle %v", q.path, resp.R2, o.r2(resp.I, resp.J))
		}
	case qTop:
		var resp server.TopResponse
		if r.checkf(json.Unmarshal(body, &resp) == nil, "decoding %s", q.path) {
			r.checkTop(q.path, resp.Pairs, resp.K, rng)
		}
	case qMatVec, qScore:
		var req struct{ X, Z []float64 }
		var resp struct{ Y, Scores []float64 }
		if !r.checkf(json.Unmarshal(q.body, &req) == nil && json.Unmarshal(body, &resp) == nil, "decoding %s", q.path) {
			return
		}
		x, got := req.X, resp.Y
		if q.kind == qScore {
			x, got = make([]float64, len(req.Z)), resp.Scores
			for i, z := range req.Z {
				x[i] = z * z
			}
		}
		want, slack := k.matvec(x)
		if !r.checkf(len(got) == len(want), "%s: %d outputs, want %d", q.path, len(got), len(want)) {
			return
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > slack[i] {
				r.check(false, "%s: y[%d] = %v, oracle fold %v (slack %v)", q.path, i, got[i], want[i], slack[i])
				return
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
