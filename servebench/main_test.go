package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"gotle/internal/workload"
)

func shortConfig(t *testing.T, name string, trace bool) (runConfig, *bytes.Buffer) {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	return runConfig{
		spec: s, seed: 7, seconds: 1, trace: trace, setups: 1, windows: 4,
		conns: runtime.NumCPU(), depth: 8, outdir: t.TempDir(), out: &out,
	}, &out
}

// A short run of each workload, untraced and traced, prints every named
// metric with its unit (or n/a) and a result line carrying the metrics
// BENCHMARK.json lists.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			cfg, out := shortConfig(t, s.name, trace)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", s.name, trace, err, out)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", s.name, trace, res.correct, res.failed, res.attempted, out)
			}
			text := out.String()
			for _, d := range append(append([]mdef{}, e2eDefs...), layerDefs...) {
				var line string
				for _, l := range strings.Split(text, "\n") {
					if f := strings.Fields(l); len(f) >= 3 && f[1] == d.name {
						line = l
					}
				}
				if line == "" {
					t.Errorf("%s trace=%v: metric %s not printed", s.name, trace, d.name)
					continue
				}
				timed := strings.HasPrefix(d.name, "kvstore.get_us") || strings.HasPrefix(d.name, "kvstore.mutate_us") || strings.HasPrefix(d.name, "server.overhead") || strings.HasPrefix(d.name, "wal.wait")
				durableOnly := d.name == "recover_s" || strings.HasPrefix(d.name, "repl") || strings.HasPrefix(d.name, "wal.")
				applies := (s.durable || !durableOnly) && (trace || !timed)
				if applies && !strings.HasSuffix(line, " "+d.unit) {
					t.Errorf("%s trace=%v: %q lacks a value in %s", s.name, trace, line, d.unit)
				}
				if !applies && !strings.HasSuffix(line, "n/a") {
					t.Errorf("%s trace=%v: %q should be n/a", s.name, trace, line)
				}
			}
			line, err := resultLine(res, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			var r struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &r); err != nil || !r.Correct {
				t.Fatalf("%s trace=%v: result line %s: %v", s.name, trace, line, err)
			}
			defs := e2eDefs
			if trace {
				defs = layerDefs
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.name]; d.inJSON && (!ok || m.Unit != d.unit) {
					t.Errorf("%s trace=%v: result line lacks %s in %s", s.name, trace, d.name, d.unit)
				}
			}
		}
	}
}

// A value written behind the clients' backs, well-formed but never sent
// by any of them, must fail the read-mostly provenance gate.
func TestTamperedValueFailsProvenance(t *testing.T) {
	cfg, out := shortConfig(t, "read-mostly", false)
	cfg.midCheck = func(st *stack) {
		th := st.prim.rt.NewThread()
		defer th.Release()
		for k := uint32(0); k < 64; k++ {
			if err := st.prim.store.SetItem(th, []byte(keyName(k)), valueOf(fpOf(0, 1<<39), 64), 0); err != nil {
				t.Error(err)
			}
		}
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || res.failed == 0 || !strings.Contains(out.String(), "check provenance: FAILED") {
		t.Fatalf("tampered values passed the provenance gate:\n%s", out)
	}
}

// tamperAll overwrites every key of the store with v, behind the
// clients' backs.
func tamperAll(t *testing.T, st *stack, v []byte) {
	th := st.prim.rt.NewThread()
	defer th.Release()
	for k := uint32(0); k < uint32(st.spec.keyspace); k++ {
		if err := st.prim.store.SetItem(th, []byte(keyName(k)), v, 0); err != nil {
			t.Error(err)
		}
	}
}

// A well-formed value that no client ever set must fail the
// capacity-mixed linearizability gate.
func TestTamperedValueFailsLinearizability(t *testing.T) {
	cfg, out := shortConfig(t, "capacity-mixed", false)
	cfg.midCheck = func(st *stack) { tamperAll(t, st, valueOf(fpOf(0, 1<<39), 64)) }
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || !strings.Contains(out.String(), "check linearizable: FAILED") {
		t.Fatalf("tampered values passed the linearizability gate:\n%s", out)
	}
}

// A stored value with corrupted bytes must fail the value check.
func TestCorruptValueFailsValueCheck(t *testing.T) {
	cfg, out := shortConfig(t, "capacity-mixed", false)
	cfg.midCheck = func(st *stack) {
		v := valueOf(fpOf(0, 1), 64)
		v[len(v)-1] = 'y'
		tamperAll(t, st, v)
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || !strings.Contains(out.String(), "check values: FAILED") {
		t.Fatalf("corrupted values passed the value check:\n%s", out)
	}
}

// A follower whose store diverges from the primary must fail the
// durable-replicated dump gate.
func TestMismatchedDumpFails(t *testing.T) {
	cfg, out := shortConfig(t, "durable-replicated", false)
	cfg.beforeDumps = func(st *stack) {
		th := st.fol.rt.NewThread()
		defer th.Release()
		if err := st.fol.store.SetItem(th, []byte("key:follower-only"), []byte("x"), 0); err != nil {
			t.Error(err)
		}
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || !strings.Contains(out.String(), "check replicas: FAILED") {
		t.Fatalf("a diverged follower passed the dump gate:\n%s", out)
	}
}

func TestFingerprint(t *testing.T) {
	sizes := []int{64, 2048}
	g := workload.New(workload.Config{ValueSizes: sizes, Seed: 3}, 5)
	for i := 1; i <= 100; i++ {
		v := g.Value()
		fp := fingerprint(v, sizes)
		if w, s := fpSplit(fp); w != 5 || s != uint64(i) {
			t.Fatalf("value %d: fingerprint (%d,%d)", i, w, s)
		}
		if !bytes.Equal(valueOf(fp, len(v)), v) {
			t.Fatalf("value %d does not rebuild", i)
		}
		bad := append([]byte(nil), v...)
		bad[len(bad)/2+8] ^= 1
		if fingerprint(bad, sizes) != fpCorrupt {
			t.Fatalf("corrupted value %d passed", i)
		}
		if fingerprint(v[:len(v)-1], sizes) != fpCorrupt {
			t.Fatalf("truncated value %d passed", i)
		}
	}
}

// BENCHMARK.json names exactly the workloads and result-line metrics
// defined here.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %s, want %s", i, w.Name, specs[i].name)
		}
	}
	for _, c := range []struct {
		got  []m
		defs []mdef
	}{{bj.EndToEnd, e2eDefs}, {bj.PerLayer, layerDefs}} {
		var want []m
		for _, d := range c.defs {
			if d.inJSON {
				want = append(want, m{d.name, d.unit, d.better})
			}
		}
		if len(c.got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, want %d", len(c.got), len(want))
		}
		for i := range want {
			if c.got[i] != want[i] {
				t.Errorf("metric %d: %+v, want %+v", i, c.got[i], want[i])
			}
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h latHist
	for ns := int64(1); ns <= 100000; ns++ {
		h.record(ns * 100)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		want := q * 100000 * 100 / 1e3
		if got := h.quantileUs(q); math.Abs(got-want) > 0.02*want {
			t.Errorf("q%v = %v us, want %v", q, got, want)
		}
	}
	for ns := int64(0); ns < 1<<20; ns = ns*3/2 + 1 {
		lo, w := histBounds(histBucket(ns))
		if float64(ns) < lo || float64(ns) >= lo+w {
			t.Fatalf("%d ns outside its bucket [%v, %v)", ns, lo, lo+w)
		}
	}
}
