// Command serveab compares the serving benchmark (servebench) between a
// base revision and the current checkout. It checks the base revision out
// as a git worktree under the build directory, runs servebench/run.sh of
// each side in alternating order — pair i runs the base first when i is
// even and the checkout first when i is odd — on every workload
// BENCHMARK.json declares, with a build directory of its own per side
// (CARGO_TARGET_DIR), and prints per workload each metric's median and
// quartiles on both sides. For the metrics BENCHMARK.json carries it also
// prints how many pairs the checkout won (ties count for neither side) and
// a verdict:
//
//   - gain: the checkout won at least nine tenths of the pairs and its
//     median is better than the base's by more than the distance between
//     the base's quartiles;
//   - WORSE: the checkout's median is worse than the base's by more than
//     the metric's bound;
//   - unresolved: neither, and the base's quartile distance is wider than
//     the bound, so "within bound" cannot be told from noise;
//   - within bound: otherwise.
//
// Pair i uses seed -seed+i on both sides. Every run's output is kept
// next to the worktree. Usage, from the repository root:
//
//	go run ./cmd/serveab -base HEAD~1 -pairs 10
//	go run ./cmd/serveab -base HEAD~1 -pairs 10 -trace 1   # per-layer metrics
//
// (make serve-ab BASE=<rev> PAIRS=10). Runs last BENCHMARK.json's
// run_seconds unless -seconds says otherwise. The checkout side is the
// working tree as it is, uncommitted edits included; serveab says so when
// the tree is dirty.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// metricDef is one metric of BENCHMARK.json. bound is 0 for per-layer
// metrics, which have none.
type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// runResult is what one servebench run printed: every numeric "e2e" or
// "layer" metric line, and whether its gates passed.
type runResult struct {
	metrics map[string]float64
	correct bool
}

func main() {
	var (
		base      = flag.String("base", "", "git revision to compare the checkout against (required)")
		pairs     = flag.Int("pairs", 10, "number of base/checkout run pairs per workload")
		seconds   = flag.Int("seconds", 0, "servebench --seconds for every run (default: BENCHMARK.json's run_seconds)")
		seed      = flag.Int64("seed", 1, "seed of the first pair; pair i uses seed+i")
		trace     = flag.Int("trace", 0, "servebench --trace: 0 compares the end-to-end metrics, 1 the per-layer ones")
		workloads = flag.String("workloads", "", "comma-separated workloads (default: all of BENCHMARK.json)")
		dir       = flag.String("dir", ".bench_build/ab", "directory for the base worktree, both build directories and run outputs")
	)
	flag.Parse()
	if *base == "" || *pairs < 1 || *seconds < 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := compare(*base, *pairs, *seconds, *seed, *trace, *workloads, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "serveab:", err)
		os.Exit(1)
	}
}

func compare(base string, pairs, seconds int, seed int64, trace int, only, dir string) error {
	var bf benchmarkFile
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds == 0 {
		seconds = bf.RunSeconds
	}
	carried := bf.EndToEnd
	if trace == 1 {
		carried = bf.PerLayer
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if only != "" {
		names = strings.Split(only, ",")
	}

	dir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}
	tree := filepath.Join(dir, "base")
	removeWorktree(tree)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if out, err := exec.Command("git", "worktree", "add", "--detach", tree, base).CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s: %v\n%s", base, err, out)
	}
	defer removeWorktree(tree)
	baseRev := gitOutput(tree, "rev-parse", "--short", "HEAD")
	headRev := gitOutput(".", "rev-parse", "--short", "HEAD")
	if gitOutput(".", "status", "--porcelain", "--untracked-files=no") != "" {
		headRev += " + uncommitted edits"
	}
	fmt.Printf("serveab: base %s (%s) vs checkout %s, %d pairs x %s, %d s, trace %d, seeds %d..%d\n",
		base, baseRev, headRev, pairs, strings.Join(names, ","), seconds, trace, seed, seed+int64(pairs)-1)

	sides := [2]struct{ name, root string }{{"base", tree}, {"head", "."}}
	// results[w][side][pair]
	results := make(map[string][2][]runResult)
	for i := 0; i < pairs; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, w := range names {
			r := results[w]
			for _, s := range order {
				args := []string{filepath.Join(sides[s].root, "servebench", "run.sh"),
					"--workload", w, "--seed", strconv.FormatInt(seed+int64(i), 10),
					"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace)}
				logPath := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.txt", sides[s].name, w, i))
				res, err := runOnce(args, filepath.Join(dir, "target-"+sides[s].name), logPath)
				if err != nil {
					return err
				}
				r[s] = append(r[s], res)
				fmt.Printf("pair %d/%d %-20s %s correct=%v (%s)\n", i+1, pairs, w, sides[s].name, res.correct, logPath)
			}
			results[w] = r
		}
	}
	for _, w := range names {
		report(os.Stdout, w, carried, results[w])
	}
	return nil
}

// runOnce runs one servebench invocation with its own build directory,
// keeps its output at logPath and parses it. A run whose gates fail exits
// 1 but still prints its metrics; it is reported, not fatal.
func runOnce(args []string, target, logPath string) (runResult, error) {
	cmd := exec.Command("bash", args...)
	cmd.Env = append(os.Environ(), "CARGO_TARGET_DIR="+target)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	runErr := cmd.Run()
	if err := os.WriteFile(logPath, out.Bytes(), 0o644); err != nil {
		return runResult{}, err
	}
	res := parseRun(&out)
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return runResult{}, fmt.Errorf("%s: %w", strings.Join(args, " "), runErr)
	}
	if len(res.metrics) == 0 {
		return runResult{}, fmt.Errorf("%s printed no metrics; see %s", strings.Join(args, " "), logPath)
	}
	res.correct = res.correct && runErr == nil
	return res, nil
}

// parseRun reads servebench's "e2e <name> <value> <unit>" and
// "layer <name> <value> <unit>" lines (n/a values are skipped) and the
// correctness flag of its closing JSON line.
func parseRun(r io.Reader) runResult {
	res := runResult{metrics: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var tail struct {
				Correct bool `json:"correct"`
			}
			if json.Unmarshal([]byte(line), &tail) == nil {
				res.correct = tail.Correct
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || (f[0] != "e2e" && f[0] != "layer") {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			res.metrics[f[1]] = v
		}
	}
	return res
}

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method (Python's statistics.quantiles(v, n=4), which
// servebench's README uses for its spread table).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// wins counts the pairs in which head beat base in the metric's better
// direction; ties count for neither.
func wins(base, head []float64, lowerBetter bool) int {
	n := 0
	for i := range min(len(base), len(head)) {
		if lowerBetter && head[i] < base[i] || !lowerBetter && head[i] > base[i] {
			n++
		}
	}
	return n
}

// verdict applies the rules in the package comment.
func verdict(base, head []float64, m metricDef) string {
	lower := m.Better == "lower"
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	gain := hmed - bmed // positive = better
	if lower {
		gain = -gain
	}
	pairs := min(len(base), len(head))
	if 10*wins(base, head, lower) >= 9*pairs && gain > bq3-bq1 {
		return "gain"
	}
	if m.Bound == 0 {
		return "-"
	}
	if bmed != 0 && -gain/math.Abs(bmed) > m.Bound {
		return "WORSE"
	}
	if bmed != 0 && (bq3-bq1)/math.Abs(bmed) > m.Bound {
		return "unresolved"
	}
	return "within bound"
}

// report prints one workload's table: the carried metrics with wins and a
// verdict, then every other metric both sides printed.
func report(w io.Writer, workload string, carried []metricDef, runs [2][]runResult) {
	col := func(side int, name string) []float64 {
		var v []float64
		for _, r := range runs[side] {
			if x, ok := r.metrics[name]; ok {
				v = append(v, x)
			}
		}
		return v
	}
	failed := [2]int{}
	for s := range runs {
		for _, r := range runs[s] {
			if !r.correct {
				failed[s]++
			}
		}
	}
	fmt.Fprintf(w, "\n== %s (%d pairs; runs failing their gates: base %d, head %d)\n", workload, len(runs[0]), failed[0], failed[1])
	fmt.Fprintf(w, "%-36s %30s %30s %9s %6s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "head/base", "wins", "verdict")
	num := func(x float64) string {
		if math.Abs(x) >= 1e4 {
			return strconv.FormatFloat(x, 'f', 0, 64)
		}
		return strconv.FormatFloat(x, 'g', 4, 64)
	}
	cell := func(v []float64) string {
		q1, med, q3 := quartiles(v)
		return num(med) + " [" + num(q1) + ", " + num(q3) + "]"
	}
	ratio := func(b, h []float64) string {
		_, bm, _ := quartiles(b)
		_, hm, _ := quartiles(h)
		if bm == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", hm/bm)
	}
	seen := map[string]bool{}
	for _, m := range carried {
		seen[m.Name] = true
		b, h := col(0, m.Name), col(1, m.Name)
		if len(b) == 0 || len(h) == 0 {
			fmt.Fprintf(w, "%-36s %30s\n", m.Name, "n/a")
			continue
		}
		fmt.Fprintf(w, "%-36s %30s %30s %9s %3d/%-2d  %s\n", m.Name, cell(b), cell(h), ratio(b, h),
			wins(b, h, m.Better == "lower"), min(len(b), len(h)), verdict(b, h, m))
	}
	var rest []string
	for _, r := range runs[0] {
		for name := range r.metrics {
			if !seen[name] && len(col(1, name)) > 0 {
				seen[name] = true
				rest = append(rest, name)
			}
		}
	}
	slices.Sort(rest)
	for _, name := range rest {
		b, h := col(0, name), col(1, name)
		fmt.Fprintf(w, "%-36s %30s %30s %9s   (not carried)\n", name, cell(b), cell(h), ratio(b, h))
	}
}

func removeWorktree(tree string) {
	// Errors are expected when no worktree is left from an earlier run.
	_ = exec.Command("git", "worktree", "remove", "--force", tree).Run()
	_ = os.RemoveAll(tree)
	_ = exec.Command("git", "worktree", "prune").Run()
}

func gitOutput(dir string, args ...string) string {
	out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).Output()
	if err != nil {
		return "?"
	}
	return strings.TrimSpace(string(out))
}
