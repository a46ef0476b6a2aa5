// Command servebench is the repository's serving benchmark. It builds the
// tleserved stack in-process from the same public constructors
// cmd/tleserved wires, drives it over loopback with closed-loop
// internal/workload traffic from a seed, checks the responses, and prints
// every end-to-end and per-layer metric by name with its unit. The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// carrying the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). See README.md for the workloads and metrics.
//
// Usage:
//
//	servebench -workload read-mostly|capacity-mixed|durable-replicated \
//	    -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: read-mostly, capacity-mixed or durable-replicated")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		outdir  = flag.String("outdir", ".bench_build/servebench-out", "directory for spans and scratch WAL directories")
	)
	flag.Parse()
	s, err := specByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("bad arguments: need -seconds >= 1 and -trace 0 or 1"))
	}
	// One connection per CPU, 8 requests deep; an untraced run measures
	// three set-ups over 20 sub-windows, a traced run one.
	cfg := runConfig{
		spec: s, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		setups: 3, windows: 20, conns: runtime.NumCPU(), depth: 8,
		outdir: *outdir, out: os.Stdout,
	}
	if cfg.trace {
		cfg.setups = 1
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	line, err := resultLine(res, cfg.trace)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if !res.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

// resultLine renders the JSON result: the end-to-end metrics untraced,
// the per-layer metrics traced.
func resultLine(res *result, trace bool) (string, error) {
	defs, vals := e2eDefs, res.e2e
	if trace {
		defs, vals = layerDefs, res.layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	for _, d := range defs {
		if !d.inJSON {
			continue
		}
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured (too short a run?)", d.name)
		}
		ms[d.name] = metric{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	return string(b), err
}

// printMetrics prints every metric of defs by name with its unit, n/a
// where it does not apply.
func printMetrics(w io.Writer, kind string, defs []mdef, vals values) {
	for _, d := range defs {
		v, ok := vals[d.name]
		s := "n/a"
		if ok && !math.IsNaN(v) {
			s = fmt.Sprintf("%.6g %s", v, d.unit)
		}
		fmt.Fprintf(w, "%-5s %-34s %s\n", kind, d.name, s)
	}
}

func header(w io.Writer, cfg runConfig) {
	s := cfg.spec
	f := flagsFor(s)
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	lines := []string{
		fmt.Sprintf("servebench workload=%s seed=%d seconds=%g mode=%s", s.name, cfg.seed, cfg.seconds, mode),
		fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("source: git=%s tree-sha256=%s", gitCommit(), treeDigest(cfg.outdir)),
		fmt.Sprintf("workload: %s", s),
		fmt.Sprintf("load: closed loop over loopback, %d connections x %d pipelined requests", cfg.conns, cfg.depth),
		fmt.Sprintf("server: %s", f),
	}
	if s.durable {
		lines = append(lines,
			fmt.Sprintf("wal: -wal <scratch dir> -fsync-window %v", f.fsyncWindow),
			"repl: -repl-listen 127.0.0.1:0, one follower (same flags) subscribed over loopback")
	}
	for _, l := range lines {
		fmt.Fprintln(w, "# "+strings.TrimSpace(l))
	}
}
