package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"syscall"
	"time"

	"gotle/internal/server/client"
	"gotle/internal/stats"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// mdef names one metric. inJSON marks the metrics the result line
// carries (BENCHMARK.json lists exactly these). An end-to-end metric is
// carried when every workload defines it and its run-to-run spread fits a
// bound (see README.md); a per-layer one when every workload defines it.
// The rest are printed by name, as n/a where they do not apply.
type mdef struct {
	name, unit, better string
	inJSON             bool
}

var e2eDefs = []mdef{
	{"setup_s", "s", "lower", true},
	{"ops_s", "1/s", "higher", true},
	{"get_p50_us", "us", "lower", false},
	{"get_p99_us", "us", "lower", false},
	{"mut_p50_us", "us", "lower", true},
	{"mut_p99_us", "us", "lower", false},
	{"failed_frac", "frac", "lower", false},
	{"cpu_us_per_op", "us/op", "lower", false},
	{"rss_mb", "MB", "lower", true},
	{"hit_ratio", "frac", "higher", true},
	{"recover_s", "s", "lower", false},
	{"repl_lag_p50_ms", "ms", "lower", false},
	{"repl_lag_p99_ms", "ms", "lower", false},
}

var layerDefs = []mdef{
	{"server.fusion_width", "ops/txn", "higher", true},
	{"server.shed_ops", "count", "lower", true},
	{"server.overhead_get_us", "us", "lower", true},
	{"server.overhead_mut_us", "us", "lower", true},
	{"kvstore.get_us_p50", "us", "lower", true},
	{"kvstore.get_us_p99", "us", "lower", true},
	{"kvstore.mutate_us_p50", "us", "lower", true},
	{"kvstore.mutate_us_p99", "us", "lower", true},
	{"kvstore.evictions_per_kop", "1/kop", "lower", true},
	{"tm.commits_per_op", "commits/op", "lower", true},
	{"tm.attempts_per_commit", "attempts/commit", "lower", true},
	{"tm.serial_frac", "frac", "lower", true},
	{"tm.aborts_conflict_per_kcommit", "1/kcommit", "lower", true},
	{"tm.aborts_capacity_per_kcommit", "1/kcommit", "lower", true},
	{"tm.aborts_event_per_kcommit", "1/kcommit", "lower", true},
	{"tm.aborts_validation_per_kcommit", "1/kcommit", "lower", true},
	{"tm.aborts_locked_per_kcommit", "1/kcommit", "lower", true},
	{"tm.aborts_serial_per_kcommit", "1/kcommit", "lower", true},
	{"epoch.quiesces_per_kcommit", "1/kcommit", "lower", true},
	{"epoch.quiesce_us_mean", "us", "lower", true},
	{"epoch.quiesce_us_per_commit", "us/commit", "lower", true},
	{"epoch.shared_grace_frac", "frac", "higher", true},
	{"adaptive.switches", "count", "lower", true},
	{"adaptive.htm_shards", "count", "higher", true},
	{"memseg.live_mb", "MB", "lower", true},
	{"wal.appends_per_fsync", "appends/fsync", "higher", false},
	{"wal.fsyncs_s", "1/s", "lower", false},
	{"wal.wait_us_p50", "us", "lower", false},
	{"wal.wait_us_p99", "us", "lower", false},
	{"wal.bytes_per_user_byte", "B/B", "lower", false},
	{"repl.lag_records_p99", "records", "lower", false},
	{"repl.applies_s", "1/s", "higher", false},
	{"repl.reconnects", "count", "lower", false},
}

// values holds measured metrics; a missing name is n/a.
type values map[string]float64

// counters is one reading of every public counter surface the benchmark
// diffs around a measured window. delta turns two readings into the
// window's counts, and add sums the counts of several windows; policies
// and liveWords are states, taken from the later reading.
type counters struct {
	eng                   stats.Snapshot
	obs                   []stats.ObserverSnapshot
	evictions             uint64
	wal                   wal.Stats
	switches              uint64
	fused, fusedOps, shed uint64 // the server's stats verb
	applied, reconnects   uint64
	policies              []tle.Policy
	liveWords             int64
}

// read snapshots the counters. th is a primary thread owned by the
// caller; sc is a connection for the server's stats verb.
func (st *stack) read(th *tm.Thread, sc *client.Client) (counters, error) {
	c := counters{eng: st.prim.rt.Engine().Snapshot()}
	for _, m := range st.prim.store.ShardMutexes() {
		c.obs = append(c.obs, m.Observer().Snapshot())
		c.policies = append(c.policies, m.CurrentPolicy())
	}
	kv, err := st.prim.store.Stats(th)
	if err != nil {
		return c, err
	}
	c.evictions = kv.Evictions
	if st.wlog != nil {
		c.wal = st.wlog.Stats()
	}
	c.switches = st.switches()
	srv, err := sc.Stats()
	if err != nil {
		return c, fmt.Errorf("stats verb: %w", err)
	}
	for k, p := range map[string]*uint64{"fused_batches": &c.fused, "fused_ops": &c.fusedOps, "shed_ops": &c.shed} {
		if *p, err = strconv.ParseUint(srv[k], 10, 64); err != nil {
			return c, fmt.Errorf("stats verb %s: %w", k, err)
		}
	}
	if st.fw != nil {
		for i := 0; i < st.prim.store.ShardCount(); i++ {
			c.applied += st.fw.Applied(i)
		}
		for _, kv := range st.fw.StatLines() {
			if kv[0] == "repl_reconnects" {
				c.reconnects, _ = strconv.ParseUint(kv[1], 10, 64)
			}
		}
	}
	c.liveWords = st.prim.rt.Engine().Memory().LiveWords()
	return c, nil
}

// delta is the counts from prev to c.
func (c counters) delta(prev counters) counters {
	d := c
	d.eng = c.eng.Sub(prev.eng)
	d.obs = make([]stats.ObserverSnapshot, len(c.obs))
	for i := range c.obs {
		d.obs[i] = c.obs[i].Sub(prev.obs[i])
	}
	d.evictions -= prev.evictions
	d.wal.Appends -= prev.wal.Appends
	d.wal.Fsyncs -= prev.wal.Fsyncs
	d.wal.Bytes -= prev.wal.Bytes
	d.switches -= prev.switches
	d.fused -= prev.fused
	d.fusedOps -= prev.fusedOps
	d.shed -= prev.shed
	d.applied -= prev.applied
	d.reconnects -= prev.reconnects
	return d
}

// add sums the counts of d into c and takes d's states.
func (c *counters) add(d counters) {
	e := &c.eng
	e.Starts += d.eng.Starts
	e.Commits += d.eng.Commits
	e.SerialRuns += d.eng.SerialRuns
	e.Quiesces += d.eng.Quiesces
	e.QuiesceTime += d.eng.QuiesceTime
	e.SharedGrace += d.eng.SharedGrace
	for i := range e.Aborts {
		e.Aborts[i] += d.eng.Aborts[i]
	}
	if c.obs == nil {
		c.obs = make([]stats.ObserverSnapshot, len(d.obs))
	}
	for i := range d.obs {
		o := &c.obs[i]
		o.Commits += d.obs[i].Commits
		o.SerialRuns += d.obs[i].SerialRuns
		o.Quiesces += d.obs[i].Quiesces
		o.QuiesceTime += d.obs[i].QuiesceTime
		for j := range o.Aborts {
			o.Aborts[j] += d.obs[i].Aborts[j]
		}
	}
	c.evictions += d.evictions
	c.wal.Appends += d.wal.Appends
	c.wal.Fsyncs += d.wal.Fsyncs
	c.wal.Bytes += d.wal.Bytes
	c.switches += d.switches
	c.fused += d.fused
	c.fusedOps += d.fusedOps
	c.shed += d.shed
	c.applied += d.applied
	c.reconnects += d.reconnects
	c.policies, c.liveWords = d.policies, d.liveWords
}

// window totals over every worker and sub-window of the measured windows.
type winTotals struct {
	attempted, completed, failed int
	gets, hits, muts             int
	userBytes                    int64
	secs                         float64
}

// layerCounts derives the per-layer count metrics from the summed
// counts d of the measured windows.
func layerCounts(v values, d counters, tot winTotals, durable bool) {
	ops := float64(tot.completed)
	commits := float64(d.eng.Commits)
	per := func(n uint64, base float64, scale float64) float64 {
		if base == 0 {
			return 0
		}
		return scale * float64(n) / base
	}
	if txns := float64(d.fused) + float64(tot.muts) - float64(d.fusedOps); txns > 0 {
		v["server.fusion_width"] = float64(tot.muts) / txns
	}
	v["server.shed_ops"] = float64(d.shed)
	v["kvstore.evictions_per_kop"] = per(d.evictions, ops, 1000)
	v["tm.commits_per_op"] = per(d.eng.Commits, ops, 1)
	v["tm.attempts_per_commit"] = per(d.eng.Starts, commits, 1)
	v["tm.serial_frac"] = per(d.eng.SerialRuns, commits, 1)
	for _, c := range []stats.AbortCause{stats.Conflict, stats.Capacity, stats.Event, stats.Validation, stats.Locked, stats.Serial} {
		v["tm.aborts_"+c.String()+"_per_kcommit"] = per(d.eng.Aborts[c], commits, 1000)
	}
	v["epoch.quiesces_per_kcommit"] = per(d.eng.Quiesces, commits, 1000)
	v["epoch.quiesce_us_mean"] = per(uint64(d.eng.QuiesceTime), float64(d.eng.Quiesces), 1e-3)
	v["epoch.quiesce_us_per_commit"] = per(uint64(d.eng.QuiesceTime), commits, 1e-3)
	v["epoch.shared_grace_frac"] = per(d.eng.SharedGrace, float64(d.eng.SharedGrace+d.eng.Quiesces), 1)
	v["adaptive.switches"] = float64(d.switches)
	htm := 0
	for _, p := range d.policies {
		if p == tle.PolicyHTMCondVar {
			htm++
		}
	}
	v["adaptive.htm_shards"] = float64(htm)
	v["memseg.live_mb"] = float64(d.liveWords) * 8 / (1 << 20)
	if durable {
		v["wal.appends_per_fsync"] = per(d.wal.Appends, float64(d.wal.Fsyncs), 1)
		v["wal.fsyncs_s"] = float64(d.wal.Fsyncs) / tot.secs
		v["wal.bytes_per_user_byte"] = per(d.wal.Bytes, float64(tot.userBytes), 1)
		v["repl.applies_s"] = float64(d.applied) / tot.secs
		v["repl.reconnects"] = float64(d.reconnects)
	}
}

// shardLines renders each shard's counts from its lock's Observer and
// the policy it ended on.
func shardLines(d counters) []string {
	var out []string
	for i, o := range d.obs {
		out = append(out, fmt.Sprintf("shard %d: policy=%s commits=%d aborts=%d serial=%d quiesces=%d",
			i, d.policies[i], o.Commits, o.TotalAborts(), o.SerialRuns, o.Quiesces))
	}
	return out
}

// quantileUs is the nearest-rank q-quantile of sorted ns samples, in µs
// (NaN when empty).
func quantileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

// median of the finite values in v (NaN when none).
func median(v []float64) float64 {
	var f []float64
	for _, x := range v {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			f = append(f, x)
		}
	}
	if len(f) == 0 {
		return math.NaN()
	}
	slices.Sort(f)
	n := len(f)
	if n%2 == 1 {
		return f[n/2]
	}
	return (f[n/2-1] + f[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes is the process's current resident set size.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return pages * int64(os.Getpagesize())
}

// hostTicks is the machine-wide CPU time split from /proc/stat.
type hostTicks struct{ total, steal uint64 }

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	var h hostTicks
	for i := 1; i < len(f) && i <= 8; i++ {
		n, _ := strconv.ParseUint(string(f[i]), 10, 64)
		h.total += n
		if i == 8 {
			h.steal = n
		}
	}
	return h
}

// stealFrac is the share of host CPU time stolen by the hypervisor since
// prev (0 where /proc/stat is unavailable).
func (h hostTicks) stealFrac(prev hostTicks) float64 {
	if h.total <= prev.total {
		return 0
	}
	return float64(h.steal-prev.steal) / float64(h.total-prev.total)
}

// available is the share of an interval the VM's CPUs were not stolen
// from, floored at 0.1. Throughput and set-up time are taken over this
// share of wall time: on a shared host, neighbours' load steals CPU in
// spells of minutes and would otherwise swamp any change in the system
// measured (halving ops_s at a 50% steal share). Without steal it is 1.
func available(steal float64) float64 { return max(1-steal, 0.1) }
