package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"etherm/api"
)

// jobInputs renders the first n generated jobs of every job workload.
func jobInputs(t *testing.T, seed uint64, n int) string {
	t.Helper()
	var b strings.Builder
	for _, js := range []*jobSpec{table2, fig7, rareSubset} {
		for k := 0; k < n; k++ {
			data, err := json.Marshal(js.batch(js.gen(seed, k)))
			if err != nil {
				t.Fatal(err)
			}
			b.Write(data)
		}
	}
	return b.String()
}

// fakeMeta stands in for the surrogates' metadata (the query generator
// reads only the trained δ range and the mean and σ).
func fakeMeta() []*api.Surrogate {
	out := make([]*api.Surrogate, surrogateCount)
	for i := range out {
		out[i] = &api.Surrogate{ID: "sg", DeltaLo: 0.05, DeltaHi: 0.3, MeanK: 450 + float64(i), StdK: 2}
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	if jobInputs(t, 7, 6) != jobInputs(t, 7, 6) {
		t.Fatal("the same seed generated different jobs")
	}
	if jobInputs(t, 7, 6) == jobInputs(t, 8, 6) {
		t.Fatal("different seeds generated the same jobs")
	}
	if !reflect.DeepEqual(surrogateSpecs(7), surrogateSpecs(7)) {
		t.Fatal("the same seed generated different surrogate specs")
	}
	if reflect.DeepEqual(surrogateSpecs(7), surrogateSpecs(8)) {
		t.Fatal("different seeds generated the same surrogate specs")
	}
	if !reflect.DeepEqual(queries(7, fakeMeta()), queries(7, fakeMeta())) {
		t.Fatal("the same seed generated different queries")
	}
	if reflect.DeepEqual(queries(7, fakeMeta()), queries(8, fakeMeta())) {
		t.Fatal("different seeds generated the same queries")
	}
}

func TestQueriesStayInDomain(t *testing.T) {
	meta := fakeMeta()
	for i, pq := range queries(3, meta) {
		m := meta[pq.surrogate]
		q := pq.q
		if q.Delta != nil && (*q.Delta < m.DeltaLo || *q.Delta > m.DeltaHi) {
			t.Errorf("query %d: δ %g outside [%g, %g]", i, *q.Delta, m.DeltaLo, m.DeltaHi)
		}
		if s := q.Sweep; s != nil && (s.From < m.DeltaLo || s.To > m.DeltaHi || s.From >= s.To || s.Steps < 2) {
			t.Errorf("query %d: sweep %+v outside [%g, %g]", i, *s, m.DeltaLo, m.DeltaHi)
		}
	}
}

func TestRepeatJobsRepeatJobZero(t *testing.T) {
	for _, js := range []*jobSpec{fig7, rareSubset} {
		if !reflect.DeepEqual(js.gen(5, 0), js.gen(5, js.repeat)) {
			t.Errorf("%s: job %d does not repeat job 0", js.name, js.repeat)
		}
		if reflect.DeepEqual(js.gen(5, 0), js.gen(5, 1)) {
			t.Errorf("%s: jobs 0 and 1 are identical", js.name)
		}
	}
}

// A traced run must hand the server exactly the batches and the query
// stream an untraced run with the same seed does.
func TestTracedModeGeneratesIdenticalInputs(t *testing.T) {
	inputs := func(traced bool) string {
		b := &bench{seed: 11, traced: traced}
		var out strings.Builder
		for _, js := range []*jobSpec{table2, fig7, rareSubset} {
			for k := 0; k < 6; k++ {
				data, err := json.Marshal(b.jobBatch(js, k))
				if err != nil {
					t.Fatal(err)
				}
				out.Write(data)
			}
		}
		stream := b.queryStream()
		for i := 0; i < 1000; i++ {
			fmt.Fprintf(&out, " %d", stream.IntN(queryPool))
		}
		return out.String()
	}
	if inputs(false) != inputs(true) {
		t.Fatal("traced and untraced runs generate different inputs")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so the helper must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		p, v   float64
		tenOut bool
	}{
		{5, 100, 5, false}, // too few for any percentile: the maximum
		{19, 100, 19, false},
		{20, 50, 10, true}, // nearest rank 10 leaves exactly ten beyond
		{99, 50, 50, true},
		{100, 90, 90, true},
		{999, 90, 900, true},
		{1000, 99, 990, true},
		{100000, 99, 99000, true}, // the ladder stops at p99
	}
	for _, c := range cases {
		p, v, n, ok := tail(seq(c.n))
		if p != c.p || v != c.v || n != c.n || ok != c.tenOut {
			t.Errorf("n=%d: got p%g=%g n=%d ok=%t, want p%g=%g ok=%t", c.n, p, v, n, ok, c.p, c.v, c.tenOut)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, p)
			}
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 90); p != 9 {
		t.Errorf("p90 = %g", p)
	}
}

func TestCPUAndRSSSamplingAreSane(t *testing.T) {
	// Hold 32 MB resident, then burn some CPU while sampling.
	buf := make([]byte, 32<<20)
	for i := 0; i < len(buf); i += 1024 {
		buf[i] = 1
	}
	rss := startRSS(time.Millisecond)
	c0 := cpuTime()
	x := 0
	for i := 0; time.Duration(cpuTime()-c0) < 50*time.Millisecond && i < 1<<31; i++ {
		buf[i%len(buf)] = byte(i)
		x += int(buf[(i*7)%len(buf)])
	}
	used := cpuTime() - c0
	samples := rss.Stop()
	if used < 50*time.Millisecond || used > 5*time.Second {
		t.Errorf("CPU time advanced %v for a ≥50 ms busy loop", used)
	}
	if len(samples) == 0 {
		t.Fatal("no RSS samples")
	}
	if p := percentile(samples, 90); p < 32 || p > 4096 {
		t.Errorf("RSS p90 %g MB with a 32 MB live buffer", p)
	}
	_ = x
}

func TestParseExposition(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\n" +
		"etherm_cg_solves_total{op=\"electric\",tier=\"ic0\"} 51\n" +
		"etserver_wal_fsync_seconds_sum 0.25\n"
	s, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if s[solvesSeries("electric", "ic0")] != 51 || s[seriesFsyncSum] != 0.25 {
		t.Fatalf("parsed %v", s)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// the command reports.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, []string{"table2-nominal", "fig7-campaign", "rare-subset", "surrogate-read"}) {
		t.Errorf("workloads %v", names)
	}
	for _, w := range names {
		if workloads[w] == nil {
			t.Errorf("workload %s is not implemented", w)
		}
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, command reports %v", e2e, endToEnd)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, the command reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), command reports %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
