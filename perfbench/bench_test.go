package main

import (
	"io"
	"math/rand"
	"path/filepath"
	"testing"
	"time"
)

// TestToyWorkloads runs every workload at toy size, untraced and traced,
// with all output checks and oracles, and requires a correct run with no
// failed operation and every metric reported.
func TestToyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{Workload: w.toy(), Seed: 3, Seconds: 0.5, Trace: trace, Out: t.TempDir(), Log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := 14
			if trace {
				want = 46
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.Name, trace, len(res.Metrics), want)
			}
		}
	}
}

// TestQuartilesMatchPython pins the quartile method of the steady
// command to Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

// TestPartialAnswersFail stops the shard of one strip and requires the
// coordinator's partial answers (200 with X-LD-Shards-Failed) to count as
// failed operations rather than as served requests.
func TestPartialAnswersFail(t *testing.T) {
	w := workloads[0].toy()
	r := &runner{opt: options{Workload: w, Seed: 3, Log: io.Discard}, w: w, dir: t.TempDir(), e2e: map[string]metric{}}
	if err := r.setup(filepath.Join(r.dir, "setup")); err != nil {
		t.Fatal(err)
	}
	defer r.teardown()
	r.env.shards[0].close()
	top := func(*rand.Rand) query { return query{method: "GET", path: "/api/ld/top?k=5", kind: qTop} }
	var res loadResult
	r.closedLoop("cluster", r.env.front.url, 200*time.Millisecond, 1, top, &res)
	if r.attempted == 0 || r.failed != r.attempted || len(res.lat) != 0 {
		t.Fatalf("attempted=%d failed=%d served=%d, want every request failed", r.attempted, r.failed, len(res.lat))
	}
}
