package main

import (
	"strings"
	"testing"
)

// Reference values from Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.v)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestWinsIgnoreTies(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	head := []float64{12, 10, 8, 11}
	if got := wins(base, head, false); got != 2 {
		t.Errorf("higher-better wins = %d, want 2", got)
	}
	if got := wins(base, head, true); got != 1 {
		t.Errorf("lower-better wins = %d, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	ops := metricDef{Name: "ops_s", Better: "higher", Bound: 0.25}
	rss := metricDef{Name: "rss_mb", Better: "lower", Bound: 0.25}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		m    metricDef
		head []float64
		want string
	}{
		{ops, []float64{200, 201, 199, 200, 202, 198, 200, 201, 199, 200}, "gain"},
		// Nine wins of ten still count; eight do not.
		{ops, []float64{200, 201, 199, 200, 202, 198, 200, 201, 199, 90}, "gain"},
		{ops, []float64{200, 201, 199, 200, 202, 198, 200, 201, 90, 90}, "within bound"},
		{ops, []float64{70, 71, 69, 70, 72, 68, 70, 71, 69, 70}, "WORSE"},
		{rss, []float64{50, 51, 49, 50, 52, 48, 50, 51, 49, 50}, "gain"},
		{rss, []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, "WORSE"},
		{rss, []float64{101, 101, 101, 101, 101, 101, 101, 101, 101, 101}, "within bound"},
		{ops, []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, "within bound"},
	} {
		if got := verdict(base, c.head, c.m); got != c.want {
			t.Errorf("%s head %v: verdict %q, want %q", c.m.Name, c.head, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := verdict(noisy, noisy, ops); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
}

func TestParseRun(t *testing.T) {
	out := `servebench provenance ...
e2e   ops_s                              114927 1/s
e2e   recover_s                          n/a
layer memseg.live_mb                     4.25098 MB
{"correct":true,"attempted":3,"failed":0,"metrics":{}}
`
	res := parseRun(strings.NewReader(out))
	if !res.correct || res.metrics["ops_s"] != 114927 || res.metrics["memseg.live_mb"] != 4.25098 {
		t.Fatalf("parseRun = %+v", res)
	}
	if _, ok := res.metrics["recover_s"]; ok {
		t.Fatal("n/a metric parsed as a value")
	}
}
