package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"gotle/internal/server/client"
	"gotle/internal/tm"
)

type runConfig struct {
	spec    *spec
	seed    int64
	seconds float64
	trace   bool
	setups  int
	windows int
	conns   int
	depth   int
	outdir  string
	out     io.Writer

	// Fault hooks for the benchmark's own tests: midCheck runs once,
	// halfway through the checked phase; beforeDumps runs on a durable
	// stack after the load stops, before the shard dumps are compared.
	midCheck    func(st *stack)
	beforeDumps func(st *stack)
}

type result struct {
	correct           bool
	attempted, failed int
	e2e, layer        values
}

// Warm-up ends once no shard has switched policy for settleQuiet, after
// at least settleMin and at most settleMax of traffic.
const (
	settleMin   = time.Second
	settleQuiet = time.Second
	settleMax   = 10 * time.Second
)

// setup is one set-up: a warmed stack with its load running, the
// preload's provenance table, and how long each phase took.
type setup struct {
	st                   *stack
	ld                   *load
	tables               map[int][]uint32
	build, preload, warm time.Duration
}

// setUp builds the stack, preloads it, lets the follower catch up, starts
// the load and warms up until the adaptive policies settle.
func setUp(cfg runConfig, walRoot string) (*setup, error) {
	t0 := time.Now()
	st, err := buildStack(cfg.spec, walRoot)
	if err != nil {
		return nil, err
	}
	su := &setup{st: st, tables: map[int][]uint32{}, build: time.Since(t0)}
	t0 = time.Now()
	if cfg.spec.preload {
		if su.tables[preloadWriter], err = st.preload(cfg.seed, preloadWriter); err != nil {
			st.close()
			return nil, err
		}
	}
	if st.fw != nil {
		if err := st.waitCaughtUp(30 * time.Second); err != nil {
			st.close()
			return nil, err
		}
	}
	su.preload = time.Since(t0)
	if su.ld, err = startLoad(st, &clock{base: time.Now()}, cfg.seed, cfg.conns, cfg.depth, cfg.windows); err != nil {
		st.close()
		return nil, err
	}
	start, last := time.Now(), st.switches()
	lastChange := start
	for {
		time.Sleep(st.flags.interval)
		now := time.Now()
		if n := st.switches(); n != last {
			last, lastChange = n, now
		}
		if now.Sub(start) >= settleMax || (now.Sub(start) >= settleMin && now.Sub(lastChange) >= settleQuiet) {
			break
		}
	}
	su.warm = time.Since(start)
	return su, nil
}

// close tears the set-up down and reports a connection's failure.
func (su *setup) close() error {
	err := su.ld.close()
	su.st.close()
	return err
}

func run(cfg runConfig) (*result, error) {
	out := cfg.out
	header(out, cfg)
	walRoot := filepath.Join(cfg.outdir, "wal")
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return nil, err
	}
	// Each set-up is measured for its share of the window: stacks built
	// the same way differ in speed by several percent, so spreading the
	// window over them keeps one stack's luck out of the result.
	nWin, secs := max(cfg.windows/cfg.setups, 2), cfg.seconds/float64(cfg.setups)
	if cfg.trace {
		nWin, secs = max(cfg.windows/2, 2), cfg.seconds/2
	}
	var (
		su     *setup
		setups []float64
		smp    sample
	)
	for i := 0; i < cfg.setups; i++ {
		t0, h0 := time.Now(), readHostTicks()
		var err error
		if su, err = setUp(cfg, walRoot); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds()*available(readHostTicks().stealFrac(h0)))
		if err := window(cfg, su, nWin, secs, &smp); err != nil {
			su.close()
			return nil, err
		}
		if i < cfg.setups-1 {
			if err := su.close(); err != nil {
				return nil, fmt.Errorf("set-up load: %w", err)
			}
			smp.earlier.add(su.ld.workers)
			runtime.GC()
			debug.FreeOSMemory()
		}
	}
	defer su.close()
	fmt.Fprintf(out, "setup: %d set-ups %s s; last: build %.3fs, preload and catch-up %.3fs, warm-up %.3fs\n",
		len(setups), fmtFloats(setups), su.build.Seconds(), su.preload.Seconds(), su.warm.Seconds())

	res := &result{e2e: values{"setup_s": median(setups)}, layer: values{}}
	smp.report(out, res, cfg.spec.durable)
	if err := finish(cfg, su, res, smp.tot, smp.earlier); err != nil {
		return nil, err
	}
	printMetrics(out, "e2e", e2eDefs, res.e2e)
	printMetrics(out, "layer", layerDefs, res.layer)
	return res, nil
}

// sample accumulates the measured windows of every set-up of a run.
type sample struct {
	opsS, opsWall, getP50, getP99, mutP50, mutP99, cpuOp, rssMB, steal []float64 // per sub-window
	tot                                                                winTotals
	earlier                                                            tally // responses of the set-ups torn down
	counts                                                             counters
	lagNs, lagRecs                                                     []int64
}

// window runs one set-up's measured window: nWin equal sub-windows over
// secs seconds, each reduced to its rates and percentiles, with the
// per-layer counters diffed around the whole window.
func window(cfg runConfig, su *setup, nWin int, secs float64, smp *sample) error {
	st, clk := su.st, su.ld.clk
	// Only the first set-up runs in a fresh process, as tleserved does:
	// later ones reuse freed heap that Go zeroes on reuse, which faults in
	// pages a fresh process leaves untouched. rss_mb comes from it alone.
	first := len(smp.opsS) == 0
	th := st.prim.rt.NewThread()
	defer th.Release()
	sc, err := client.Dial(st.addr)
	if err != nil {
		return err
	}
	defer sc.Close()
	winLen := time.Duration(secs * float64(time.Second) / float64(nWin))
	before, err := st.read(th, sc)
	if err != nil {
		return err
	}
	rss := startRSS(clk, nWin)
	var lag *lagSampler
	if st.fw != nil {
		lag = startLag(st)
	}
	start := clk.planWindows(nWin, winLen)
	cpu, host := []time.Duration{cpuTime()}, []hostTicks{readHostTicks()}
	for i := 1; i <= nWin; i++ {
		time.Sleep(time.Until(clk.base.Add(time.Duration(start + int64(i)*int64(winLen)))))
		cpu, host = append(cpu, cpuTime()), append(host, readHostTicks())
	}
	after, err := st.read(th, sc)
	rss.stop()
	if lag != nil {
		lag.halt()
		smp.lagNs, smp.lagRecs = append(smp.lagNs, lag.lagNs...), append(smp.lagRecs, lag.recs...)
	}
	if err != nil {
		return err
	}
	smp.counts.add(after.delta(before))
	tot := &smp.tot
	for i := 0; i < nWin; i++ {
		var gl, ml latHist
		done := 0
		for _, w := range su.ld.workers {
			ws := &w.wins[i]
			gl.merge(&ws.getLat)
			ml.merge(&ws.mutLat)
			done += ws.completed
			tot.attempted += ws.attempted
			tot.completed += ws.completed
			tot.failed += ws.failed
			tot.gets += ws.gets
			tot.hits += ws.hits
			tot.muts += int(ws.mutLat.n)
			tot.userBytes += ws.userBytes
		}
		steal := host[i+1].stealFrac(host[i])
		smp.opsWall = append(smp.opsWall, float64(done)/winLen.Seconds())
		smp.opsS = append(smp.opsS, float64(done)/(winLen.Seconds()*available(steal)))
		smp.getP50, smp.getP99 = append(smp.getP50, gl.quantileUs(0.5)), append(smp.getP99, gl.quantileUs(0.99))
		smp.mutP50, smp.mutP99 = append(smp.mutP50, ml.quantileUs(0.5)), append(smp.mutP99, ml.quantileUs(0.99))
		smp.cpuOp = append(smp.cpuOp, float64(cpu[i+1]-cpu[i])/1e3/float64(max(done, 1)))
		if first {
			smp.rssMB = append(smp.rssMB, float64(rss.peaks[i])/(1<<20))
		}
		smp.steal = append(smp.steal, steal)
	}
	tot.secs += winLen.Seconds() * float64(nWin)
	return nil
}

// report sets the end-to-end metrics (medians over every sub-window) and
// the per-layer counts, and prints the sub-windows.
func (smp *sample) report(out io.Writer, res *result, durable bool) {
	tot, e := smp.tot, res.e2e
	e["ops_s"], e["cpu_us_per_op"] = median(smp.opsS), median(smp.cpuOp)
	e["get_p50_us"], e["get_p99_us"] = median(smp.getP50), median(smp.getP99)
	e["mut_p50_us"], e["mut_p99_us"] = median(smp.mutP50), median(smp.mutP99)
	e["rss_mb"] = median(smp.rssMB)
	if tot.gets > 0 {
		e["hit_ratio"] = float64(tot.hits) / float64(tot.gets)
	}
	fmt.Fprintf(out, "window: %d sub-windows over %.1fs, %d responses (%d gets, %d mutations), %d failed\n",
		len(smp.opsS), tot.secs, tot.attempted, tot.gets, tot.muts, tot.failed)
	for _, row := range []struct {
		name string
		v    []float64
	}{{"ops_s", smp.opsS}, {"ops_s_wall", smp.opsWall}, {"get_p50_us", smp.getP50}, {"get_p99_us", smp.getP99}, {"mut_p50_us", smp.mutP50}, {"mut_p99_us", smp.mutP99},
		{"cpu_us_per_op", smp.cpuOp}, {"rss_mb", smp.rssMB}, {"host_steal_frac", smp.steal}} {
		fmt.Fprintf(out, "per-window %-15s %s\n", row.name, fmtFloats(row.v))
	}
	layerCounts(res.layer, smp.counts, tot, durable)
	for _, l := range shardLines(smp.counts) {
		fmt.Fprintln(out, l)
	}
	if durable {
		sortInts(smp.lagNs)
		sortInts(smp.lagRecs)
		e["repl_lag_p50_ms"] = quantileUs(smp.lagNs, 0.5) / 1e3
		e["repl_lag_p99_ms"] = quantileUs(smp.lagNs, 0.99) / 1e3
		res.layer["repl.lag_records_p99"] = quantileUs(smp.lagRecs, 0.99) * 1e3
		fmt.Fprintf(out, "repl lag: %d records timed, %d lag samples\n", len(smp.lagNs), len(smp.lagRecs))
	}
}

// finish runs, on the last set-up, the traced window and layer pass
// (traced runs only), the checked phase and the correctness gates.
func finish(cfg runConfig, su *setup, res *result, tot winTotals, earlier tally) error {
	st, ld := su.st, su.ld
	th := st.prim.rt.NewThread()
	defer th.Release()
	var trDur time.Duration
	trAvail := 1.0
	if cfg.trace {
		trDur = time.Duration(cfg.seconds / 4 * float64(time.Second))
		h0 := readHostTicks()
		ld.clk.planTrace(trDur)
		time.Sleep(trDur)
		trAvail = available(readHostTicks().stealFrac(h0))
	}
	init, presweepBad, err := checkedPhase(cfg, st, ld, th)
	if err != nil {
		return err
	}
	var layerHits []hit
	if cfg.trace {
		var spans [][]span
		if spans, layerHits, err = layerPass(st, ld.clk, ld.workers, cfg.depth); err != nil {
			return err
		}
		if err := traceMetrics(cfg, res, ld, spans, trDur, trAvail); err != nil {
			return err
		}
	}
	if err := ld.close(); err != nil {
		return err
	}
	bad, errs, err := gates(cfg, su, res, earlier, init, presweepBad, layerHits)
	if err != nil {
		return err
	}
	res.attempted = tot.attempted
	res.failed = tot.failed + bad
	res.correct = bad == 0 && errs == 0
	res.e2e["failed_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	return nil
}

// checkedPhase runs the load for a quarter of the measured length with
// the history recorded, then stops it. Recording stays out of the
// measured window, where it would cost throughput and memory. For the
// linearizability gate the load first pauses and every key is read
// straight from the store: the values found open the history as sets
// that precede every recorded op. It returns those sets and how many of
// the values read were malformed.
func checkedPhase(cfg runConfig, st *stack, ld *load, th *tm.Thread) ([]hop, int, error) {
	var init []hop
	bad := 0
	if cfg.spec.linearize {
		if err := ld.stop(); err != nil {
			return nil, 0, err
		}
		for k := uint32(0); k < uint32(cfg.spec.keyspace); k++ {
			it, ok, err := st.prim.store.GetItem(th, []byte(keyName(k)))
			if err != nil {
				return nil, 0, err
			}
			if ok {
				fp := fingerprint(it.Value, cfg.spec.valSizes)
				if fp == fpCorrupt {
					bad++
				}
				t := ld.clk.now()
				init = append(init, hop{call: t, ret: t + 1, kind: kSet, key: k, fp: fp})
			}
		}
		time.Sleep(time.Microsecond) // every recorded call comes after the last set's return
		ld.clk.record.Store(true)
		ld.resume()
	} else {
		ld.clk.record.Store(true)
	}
	d := time.Duration(cfg.seconds / 4 * float64(time.Second))
	time.Sleep(d / 2)
	if cfg.midCheck != nil {
		cfg.midCheck(st)
	}
	time.Sleep(d - d/2)
	err := ld.stop()
	ld.clk.record.Store(false)
	return init, bad, err
}

// gates runs the correctness gates and prints each verdict. It returns
// the number of violations and of error responses.
func gates(cfg runConfig, su *setup, res *result, t tally, init []hop, presweepBad int, layerHits []hit) (int, int, error) {
	out, s, workers := cfg.out, cfg.spec, su.ld.workers
	bad := 0
	gate := func(name string, n int, first, what string) {
		if n == 0 {
			fmt.Fprintf(out, "check %s: OK (%s)\n", name, what)
			return
		}
		bad += n
		fmt.Fprintf(out, "check %s: FAILED, %d violations; first: %s\n", name, n, first)
	}
	t.add(workers)
	t.corrupt += presweepBad
	for _, h := range layerHits {
		if h.fp == fpCorrupt {
			t.corrupt++
		}
	}
	fmt.Fprintf(out, "responses: %d shed, %d errors over the whole run\n", t.shed, t.errs)
	gate("values", t.corrupt, "a value no generator writes was read", "every value read was well-formed")
	if s.linearize {
		t0 := time.Now()
		n, first, ops := checkLinearizable(init, workers)
		gate("linearizable", n, first, fmt.Sprintf("%d ops, checked per key in %.1fs", ops, time.Since(t0).Seconds()))
	} else {
		hits := append([]hit(nil), layerHits...)
		for _, w := range workers {
			su.tables[w.id] = w.setKeys
			hits = append(hits, w.hits...)
		}
		n, first := checkProvenance(hits, su.tables)
		gate("provenance", n, first, fmt.Sprintf("%d hits each returned a value set to that key", len(hits)))
	}
	if s.durable {
		n, first, err := durableGate(cfg, su.st, res)
		if err != nil {
			return bad, t.errs, err
		}
		gate("replicas", n, first, "primary, follower and recovered shard dumps byte-identical")
	}
	return bad, t.errs, nil
}

// tally counts the shed, error and malformed-value responses of a run.
type tally struct{ shed, errs, corrupt int }

func (t *tally) add(workers []*worker) {
	for _, w := range workers {
		t.shed, t.errs, t.corrupt = t.shed+w.shed, t.errs+w.errs, t.corrupt+w.corrupt
	}
}

// durableGate stops serving, times recovery of the WAL into a fresh
// store (recover_s) and compares the primary, follower and recovered
// shard dumps.
func durableGate(cfg runConfig, st *stack, res *result) (int, string, error) {
	if cfg.beforeDumps != nil {
		cfg.beforeDumps(st)
	}
	if err := st.stopServing(); err != nil {
		return 0, "", err
	}
	if err := st.wlog.Close(); err != nil {
		return 0, "", fmt.Errorf("wal close: %w", err)
	}
	st.wlog = nil
	rec, err := newNode(st.flags)
	if err != nil {
		return 0, "", err
	}
	defer rec.close()
	t0 := time.Now()
	l, err := openRecovered(st.walDir, rec, st.flags.fsyncWindow)
	if err != nil {
		return 0, "", fmt.Errorf("recover: %w", err)
	}
	res.e2e["recover_s"] = time.Since(t0).Seconds()
	if err := l.Close(); err != nil {
		return 0, "", err
	}
	nodes := []*node{st.prim, st.fol, rec}
	dumps := make([][][]byte, len(nodes))
	for i, n := range nodes {
		th := n.rt.NewThread()
		for sh := 0; sh < n.store.ShardCount(); sh++ {
			d, err := n.store.DumpShard(th, sh)
			if err != nil {
				th.Release()
				return 0, "", fmt.Errorf("dump: %w", err)
			}
			dumps[i] = append(dumps[i], d)
		}
		th.Release()
	}
	n, first := checkDumps([]string{"primary", "follower", "recovered"}, dumps)
	return n, first, nil
}

// traceMetrics derives the per-layer times from the traced window and
// the layer pass, prints each span name's self time, writes the spans
// and reports the tracing overhead.
func traceMetrics(cfg runConfig, res *result, ld *load, layer [][]span, trDur time.Duration, trAvail float64) error {
	out, untracedOps := cfg.out, res.e2e["ops_s"]
	var client [][]span
	trEnd := ld.clk.trEnd.Load()
	answered := 0
	for _, w := range ld.workers {
		client = append(client, w.spans)
		for _, sp := range w.spans {
			if sp.end != 0 && sp.end <= trEnd {
				answered++
			}
		}
	}
	sum := summarize(client, layer)
	for i, sm := range sum {
		if sm.count == 0 {
			continue
		}
		var total int64
		for _, d := range sm.self {
			total += d
		}
		fmt.Fprintf(out, "span %-22s count=%-8d p50_us=%-9.2f p99_us=%-9.2f self_p50_us=%-9.2f self_total_ms=%.1f\n",
			spanNames[i], sm.count, quantileUs(sm.dur, 0.5), quantileUs(sm.dur, 0.99), quantileUs(sm.self, 0.5), float64(total)/1e6)
	}
	l := res.layer
	l["kvstore.get_us_p50"], l["kvstore.get_us_p99"] = quantileUs(sum[spGet].dur, 0.5), quantileUs(sum[spGet].dur, 0.99)
	l["kvstore.mutate_us_p50"], l["kvstore.mutate_us_p99"] = quantileUs(sum[spMutate].dur, 0.5), quantileUs(sum[spMutate].dur, 0.99)
	wait := 0.0
	if cfg.spec.durable {
		l["wal.wait_us_p50"], l["wal.wait_us_p99"] = quantileUs(sum[spWalWait].dur, 0.5), quantileUs(sum[spWalWait].dur, 0.99)
		wait = l["wal.wait_us_p50"]
	}
	getMed, mutMed, nGet, nMut := clientMedians(client)
	l["server.overhead_get_us"] = getMed - l["kvstore.get_us_p50"]
	l["server.overhead_mut_us"] = mutMed - l["kvstore.mutate_us_p50"] - wait
	for _, c := range []struct {
		op          string
		n           int
		client, sum float64
	}{{"get", nGet, getMed, l["kvstore.get_us_p50"]}, {"mutation", nMut, mutMed, l["kvstore.mutate_us_p50"] + wait}} {
		verdict := "OK"
		if !(c.sum <= c.client) {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(out, "reconcile %s: layer medians %.2f us <= client.request median %.2f us (%d requests): %s\n",
			c.op, c.sum, c.client, c.n, verdict)
	}
	tracedOps := float64(answered) / (trDur.Seconds() * trAvail)
	fmt.Fprintf(out, "tracing overhead: %+.1f%% throughput (traced %.0f ops/s vs untraced %.0f ops/s)\n",
		100*(tracedOps-untracedOps)/untracedOps, tracedOps, untracedOps)
	path := filepath.Join(cfg.outdir, "spans-"+cfg.spec.name+".csv")
	n, err := writeSpans(path, client, layer)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", n, path)
	return nil
}

// rssSampler tracks the peak resident set size of each measured
// sub-window, polled every 50ms.
type rssSampler struct {
	peaks []int64 // read after stop
	quit  chan struct{}
	wg    sync.WaitGroup
}

func startRSS(clk *clock, nWin int) *rssSampler {
	s := &rssSampler{peaks: make([]int64, nWin), quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
			if i := clk.window(clk.now()); i >= 0 {
				s.peaks[i] = max(s.peaks[i], rssBytes())
			}
		}
	}()
	return s
}

func (s *rssSampler) stop() {
	close(s.quit)
	s.wg.Wait()
}

// lagSampler times replication lag per shard: when Source.Seq(i) is
// first seen at a sequence number, and when Follower.Applied(i) is first
// seen at or past it. It also samples the lag in records.
type lagSampler struct {
	lagNs, recs []int64 // recs: lag in records, one sample per shard per poll
	quit        chan struct{}
	wg          sync.WaitGroup
}

func startLag(st *stack) *lagSampler {
	ls := &lagSampler{quit: make(chan struct{})}
	n := st.prim.store.ShardCount()
	type mark struct {
		seq uint64
		at  time.Time
	}
	ls.wg.Add(1)
	go func() {
		defer ls.wg.Done()
		seen := make([]uint64, n)
		queue := make([][]mark, n)
		for {
			select {
			case <-ls.quit:
				return
			default:
			}
			now := time.Now()
			for i := 0; i < n; i++ {
				seq, applied := st.src.Seq(i), st.fw.Applied(i)
				if seq > seen[i] {
					seen[i] = seq
					queue[i] = append(queue[i], mark{seq, now})
				}
				for len(queue[i]) > 0 && queue[i][0].seq <= applied {
					ls.lagNs = append(ls.lagNs, int64(now.Sub(queue[i][0].at)))
					queue[i] = queue[i][1:]
				}
				if seq > applied {
					ls.recs = append(ls.recs, int64(seq-applied))
				} else {
					ls.recs = append(ls.recs, 0)
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	return ls
}

func (ls *lagSampler) halt() {
	close(ls.quit)
	ls.wg.Wait()
	sortInts(ls.lagNs)
	sortInts(ls.recs)
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// gitCommit names the checkout's commit when it is a git work tree.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown (not a git checkout)"
	}
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// treeDigest fingerprints the Go sources under the working directory,
// so a result names the code it measured even without git.
func treeDigest(skip string) string {
	h := sha256.New()
	skipAbs, _ := filepath.Abs(skip)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(p)
			if p != "." && (strings.HasPrefix(d.Name(), ".") || abs == skipAbs) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
