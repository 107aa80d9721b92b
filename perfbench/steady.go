package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"

	"ldgemm/internal/blis"
)

// steady runs the benchmark N times with seeds 1..N, one child
// process at a time, and prints for every metric its median, quartiles
// and quartile spread as a share of the median, plus each run's failed
// share of attempted operations.
func steady(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	seconds := fs.String("seconds", "50", "measuring window of each run")
	trace := fs.String("trace", "0", "0 or 1, passed through")
	out := fs.String("out", ".bench_build", "passed through")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := findWorkload(*name); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s, GOMAXPROCS %d, %s, workload %s, %d runs of %ss\n",
		blis.HostFingerprint(), runtime.GOMAXPROCS(0), runtime.Version(), *name, *runs, *seconds)
	values := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < *runs; k++ {
		seed := strconv.Itoa(k + 1)
		cmd := exec.Command(self, "--workload", *name, "--seed", seed, "--seconds", *seconds, "--trace", *trace, "--out", *out)
		var buf bytes.Buffer
		cmd.Stdout, cmd.Stderr = &buf, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %s: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run with seed %s: result line: %w", seed, err)
		}
		fmt.Fprintf(stdout, "seed %s: correct=%t attempted=%d failed=%d (share %.6f)\n",
			seed, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
		for m, v := range res.Metrics {
			values[m] = append(values[m], v.Value)
			units[m] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-40s %14s %14s %14s %8s  %-9s %s\n", "metric", "q1", "median", "q3", "spread", "unit", "values by seed")
	for _, m := range names {
		q := quartiles(values[m])
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Fprintf(stdout, "%-40s %14.6g %14.6g %14.6g %8.4f  %-9s %.4g\n", m, q[0], q[1], q[2], spread, units[m], values[m])
	}
	return nil
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{d[0], d[0], d[0]}
		}
		return q
	}
	m := ld + 1
	for i := 1; i < 4; i++ {
		j := i * m / 4
		j = max(1, min(ld-1, j))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
