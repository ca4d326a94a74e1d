package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestGenerateIsPureFunctionOfSeedAndJob(t *testing.T) {
	for name, w := range workloads {
		a := Generate(w.shape, 7, 3)
		b := Generate(w.shape, 7, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two calls with the same (seed, job) gave different federations", name)
		}
		if !bytes.Equal(w.shape.RunBody(a), w.shape.RunBody(b)) {
			t.Errorf("%s: run bodies differ for the same (seed, job)", name)
		}
	}
}

func TestGenerateDiffersAcrossSeedsAndJobs(t *testing.T) {
	s := workloads["als_mc24"].shape
	base := Generate(s, 1, 0)
	for _, other := range []Federation{Generate(s, 2, 0), Generate(s, 1, 1)} {
		if reflect.DeepEqual(base.Clients, other.Clients) || reflect.DeepEqual(base.Test, other.Test) {
			t.Fatal("different seeds or job indices gave the same data")
		}
	}
}

func TestEveryJobCarriesTheDuplicatePair(t *testing.T) {
	for name, w := range workloads {
		for seed := int64(1); seed <= 3; seed++ {
			for job := 0; job < 4; job++ {
				f := Generate(w.shape, seed, job)
				if len(f.Clients) != w.shape.Clients {
					t.Fatalf("%s: %d clients, want %d", name, len(f.Clients), w.shape.Clients)
				}
				if !reflect.DeepEqual(f.Clients[0], f.Clients[1]) {
					t.Fatalf("%s seed %d job %d: client 1 is not a copy of client 0", name, seed, job)
				}
				if len(f.Clients[0].Y) != w.shape.Points || len(f.Test.Y) != w.shape.TestPoints {
					t.Fatalf("%s: wrong dataset sizes", name)
				}
				f.Clients[1].X[0][0]++
				if f.Clients[0].X[0][0] == f.Clients[1].X[0][0] {
					t.Fatalf("%s: the duplicate shares storage with the original", name)
				}
			}
		}
	}
}

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{1000, 99}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {11, 9}} {
		p, ok := tailPercentile(tc.n, 10)
		if !ok || p != tc.want {
			t.Errorf("n=%d: got p%d (ok=%v), want p%d", tc.n, p, ok, tc.want)
		}
		// The rule: at least ten samples beyond p, fewer beyond p+1.
		if beyond := tc.n * (100 - p); beyond < 1000 {
			t.Errorf("n=%d: only %.2f samples beyond p%d", tc.n, float64(beyond)/100, p)
		}
		if next := tc.n * (100 - p - 1); next >= 1000 {
			t.Errorf("n=%d: p%d also has %.2f samples beyond it", tc.n, p+1, float64(next)/100)
		}
	}
	if _, ok := tailPercentile(10, 10); ok {
		t.Error("n=10 cannot have ten samples beyond any percentile")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p, beyond := tail(xs)
	if p != 90 || beyond != 10 || v != quantile(xs, 0.9) {
		t.Errorf("tail of 1..100 = %v at p%d with %d beyond, want p90 with 10 beyond", v, p, beyond)
	}
}

func TestStageSelfTimesCloseOnWallTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := jobResult{Spans: []span{
		{Name: "job", Start: at(0), End: at(100)},
		{Name: "fedsv", Start: at(5), End: at(15)},
		{Name: "observe", Shard: 0, Start: at(15), End: at(45)},
		{Name: "observe", Shard: 1, Start: at(20), End: at(50)},
		{Name: "complete", Start: at(55), End: at(90)},
		{Name: "shapley", Start: at(90), End: at(92)},
	}}
	st := stagesOf(r)
	approx := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	if !approx(st.observe, 0.060) || !approx(st.observeSpan, 0.035) {
		t.Errorf("observe sum %v span %v, want 0.060 and 0.035", st.observe, st.observeSpan)
	}
	if !approx(st.unattributed, 0.018) {
		t.Errorf("unattributed %v, want 0.018", st.unattributed)
	}
	if st.closure > 1e-9 {
		t.Errorf("non-overlapping stages must close exactly, got %v", st.closure)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x y
comfedsvd_tasks_executed_total{stage="observe"} 8
comfedsvd_tasks_executed_total{stage="prepare"} 2
comfedsvd_cellcache_hit_total 5
`
	m, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["comfedsvd_tasks_executed_total"] != 10 || m["comfedsvd_tasks_executed_total.observe"] != 8 || m["comfedsvd_cellcache_hit_total"] != 5 {
		t.Errorf("parsed %v", m)
	}
}
