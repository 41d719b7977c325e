package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestQuantileIndexAndSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q      float64
		v      float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.99, 99, 1},
		{0.999, 100, 0},
		{0.01, 1, 99},
		{1, 100, 0},
	} {
		v, beyond := quantile(xs, tc.q)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("quantile(1..100, %g) = %g with %d beyond, want %g with %d", tc.q, v, beyond, tc.v, tc.beyond)
		}
	}
	if v, beyond := quantile([]float64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("single sample: got %g, %d", v, beyond)
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("empty sample: got %g, %d", v, beyond)
	}
	if i := rankIndex(1000, 0.99); i != 989 {
		t.Errorf("rankIndex(1000, 0.99) = %d, want 989 (10 samples beyond)", i)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{0, 10}
	for _, tc := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"none", nil, 10},
		{"disjoint", []interval{{1, 2}, {4, 6}}, 7},
		{"overlapping", []interval{{1, 4}, {3, 6}}, 5},
		{"nested", []interval{{1, 8}, {2, 3}}, 3},
		{"clipped to parent", []interval{{-5, 1}, {9, 20}}, 8},
		{"unsorted mix", []interval{{8, 12}, {3, 6}, {1, 4}}, 3},
		{"covering", []interval{{-1, 11}}, 0},
	} {
		if got := selfTime(parent, tc.children); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: selfTime = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestBudgetRowsAndUnattributedSumToP50(t *testing.T) {
	names := []string{"a", "b", "c"}
	var parts [][]float64
	var lat []float64
	for i := 0; i < 1001; i++ {
		p := []float64{float64(i % 7), 2 * float64(i%11), 0.5}
		parts = append(parts, p)
		lat = append(lat, p[0]+p[1]+p[2]+float64(i%13)) // 0..12 µs nobody attributes
	}
	p50, rows, un := latencyBudget(names, parts, lat, 0.05)
	if len(rows) != len(names) {
		t.Fatalf("%d rows, want %d", len(rows), len(names))
	}
	sum := un
	for k, r := range rows {
		if r.name != names[k] {
			t.Errorf("row %d is %q, want %q", k, r.name, names[k])
		}
		sum += r.us
	}
	want, _ := quantile(sortedCopy(lat), 0.5)
	if p50 != want || math.Abs(sum-p50) > 1e-9 {
		t.Errorf("rows + unattributed = %g, p50 = %g (want %g)", sum, p50, want)
	}
	if un <= 0 {
		t.Errorf("unattributed = %g, want the positive remainder", un)
	}
}

func TestParsePrometheusSumsLabelSets(t *testing.T) {
	text := `# HELP cascade_gw_bad_header_total Malformed protocol headers.
# TYPE cascade_gw_bad_header_total counter
cascade_gw_bad_header_total{header="gen"} 2
cascade_gw_bad_header_total{header="penalty",node="0"} 1

cascade_gw_hits_total 5e3
cascade_node_shard_lock_waits_total{node="0",shard="1"} 4 1700000000000
cascade_gw_request_seconds_bucket{le="+Inf"} 9
`
	m, err := parsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"cascade_gw_bad_header_total":         3,
		"cascade_gw_hits_total":               5000,
		"cascade_node_shard_lock_waits_total": 4,
		"cascade_gw_request_seconds_bucket":   9,
	} {
		if m[name] != want {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
	for _, bad := range []string{"cascade_x{a=\"1\" 3\n", "cascade_x\n", "cascade_x notanumber\n"} {
		if _, err := parsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("parsePrometheus(%q) accepted a malformed line", bad)
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	m := mix{objects: 500, theta: 0.8, writeShare: 0.05}
	a := genOps(7, streamMeasure, 0, 5000, m)
	if b := genOps(7, streamMeasure, 0, 5000, m); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request streams")
	}
	if b := genOps(8, streamMeasure, 0, 5000, m); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same request stream")
	}
	if b := genOps(7, streamWarm, 0, 5000, m); reflect.DeepEqual(a, b) {
		t.Fatal("different streams of one seed gave the same requests")
	}
	writes := 0
	for _, o := range a {
		if o.obj < 0 || int(o.obj) >= m.objects {
			t.Fatalf("object %d outside the catalog", o.obj)
		}
		if o.write {
			writes++
		}
	}
	if share := float64(writes) / float64(len(a)); math.Abs(share-0.05) > 0.015 {
		t.Errorf("write share %g, want about 0.05", share)
	}
}

func TestGeneratorDriftMovesTheHotSet(t *testing.T) {
	m := mix{objects: 600, theta: 0.8, driftEvery: 100, driftStep: 10}
	still := genOps(3, streamMeasure, 0, 100, mix{objects: 600, theta: 0.8})
	first := genOps(3, streamMeasure, 0, 100, m)
	if !reflect.DeepEqual(still, first) {
		t.Fatal("drift changed the first window")
	}
	later := genOps(3, streamMeasure, 250, 100, m)
	for i := range later {
		shift := int32(20) // requests 250..299 are in the third window
		if i >= 50 {
			shift = 30
		}
		if want := (still[i].obj + shift) % 600; later[i].obj != want {
			t.Fatalf("request %d at offset 250: object %d, want %d", i, later[i].obj, want)
		}
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the metric and
// workload tables of this program in step.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined by the program", w.Name)
		}
	}
}

func TestQuietHalfPicksLeastStolenWindows(t *testing.T) {
	steal := []float64{0.10, 0, 0.02, 0.02, 0.30}
	if got, want := quietHalf(steal), []int{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("quietHalf = %v, want %v", got, want)
	}
	if got, want := pick([]float64{5, 6, 7, 8, 9}, []int{1, 2, 3}), []float64{6, 7, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("pick = %v, want %v", got, want)
	}
	if got, want := quietHalf([]float64{0, 0, 0, 0}), []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("quietHalf without steal = %v, want the first half %v", got, want)
	}
}
