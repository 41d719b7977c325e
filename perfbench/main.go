// Command perfbench is the cascade repository's benchmark. It builds one
// workload through the root cascade facade — an in-process origin behind a
// chain of three HTTP gateways on loopback, or a runtime Cluster on the
// paper's 100-node en-route topology — drives it from a seeded generator,
// verifies every response, and prints the workload's metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (tracing off); with
// --trace 1 they are the per-layer set from a separate traced run. See
// README.md in this directory for every metric, workload and layer.
//
// Usage:
//
//	go run . --workload edge-small --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in report order. Every
// workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"goodput_mib_s", "MiB/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"cpu_us_per_req", "us"},
	{"alloc_bytes_per_req", "B"},
	{"rss_peak_mib", "MiB"},
	{"hit_ratio", "ratio"},
	{"byte_hit_ratio", "ratio"},
	{"model_cost_per_req", "model-s"},
}

// perLayer lists the metrics of a traced run. A layer a workload does not
// exercise reports 0 (README.md says which workload each one is for).
var perLayer = []metricDef{
	{"loadgen.late_us_p99", "us"},
	{"loadgen.conns", "count"},
	{"nethttp.rt_self_us_p50", "us"},
	{"nethttp.rt_self_us_p99", "us"},
	{"nethttp.conns_opened", "count"},
	{"httpgw.hop0.self_us_p50", "us"},
	{"httpgw.hop0.self_us_p99", "us"},
	{"httpgw.hop1.self_us_p50", "us"},
	{"httpgw.hop1.self_us_p99", "us"},
	{"httpgw.hop2.self_us_p50", "us"},
	{"httpgw.hop2.self_us_p99", "us"},
	{"httpgw.hdr_bytes_per_hop", "B"},
	{"httpgw.served_at.0", "ratio"},
	{"httpgw.served_at.1", "ratio"},
	{"httpgw.served_at.2", "ratio"},
	{"httpgw.served_at.origin", "ratio"},
	{"httpgw.bad_header", "count"},
	{"engine.lookup_us", "us"},
	{"engine.up_us", "us"},
	{"engine.decide_us", "us"},
	{"engine.down_us", "us"},
	{"engine.lookup_ns", "ns"},
	{"engine.up_miss_ns", "ns"},
	{"engine.decide_ns", "ns"},
	{"engine.down_step_ns", "ns"},
	{"engine.walk_hit_ratio", "ratio"},
	{"engine.cands_per_decide", "count"},
	{"engine.shard_lock_waits_per_kreq", "count"},
	{"cache.inserts_per_req", "count"},
	{"cache.evictions_per_req", "count"},
	{"store.body_us", "us"},
	{"store.promote_us", "us"},
	{"store.tiered_put_us", "us"},
	{"store.tiered_get_mem_us", "us"},
	{"store.tiered_spill_us", "us"},
	{"store.tiered_get_disk_us", "us"},
	{"store.tiered_promote_us", "us"},
	{"store.disk_hit_share", "ratio"},
	{"store.spills_per_req", "count"},
	{"store.spill_mib_s", "MiB/s"},
	{"store.corrupt_reads", "count"},
	{"coherency.us", "us"},
	{"coherency.stale_selfheal_per_kreq", "count"},
	{"coherency.inval_applied_per_write", "count"},
	{"coherency.cas_conflicts", "count"},
	{"runtime.get_us_p50", "us"},
	{"runtime.unattributed_share", "ratio"},
	{"runtime.msgs_per_req", "count"},
	{"span.overhead_share", "ratio"},
	{"span.dropped", "count"},
	{"go.gc_per_kreq", "count"},
	{"go.gc_pause_p99_us", "us"},
	{"go.gc_cpu_share", "ratio"},
	{"budget.p50_us", "us"},
	{"budget.loadgen_us", "us"},
	{"budget.nethttp_us", "us"},
	{"budget.httpgw_us", "us"},
	{"budget.engine_us", "us"},
	{"budget.store_us", "us"},
	{"budget.coherency_us", "us"},
	{"budget.origin_us", "us"},
	{"budget.unattributed_us", "us"},
	{"budget.unattributed_share", "ratio"},
}

// report collects one run's metrics and its verification counts.
type report struct {
	attempted, failed int64
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// count adds verified operations and their failures to the totals.
func (r *report) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final line from the metric set the run mode owes.
// An end-to-end metric the run did not produce is a benchmark bug.
func (r *report) result(defs []metricDef, required bool) (resultLine, error) {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && required {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch space for spill tiers, inside the working tree
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds of the run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "scratch"), "scratch directory for disk tiers")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if cfg.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames()))
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fail(err)
	}

	rep := newReport()
	var err error
	if w.replay {
		err = runReplay(w, cfg, rep)
	} else {
		err = runHTTP(w, cfg, rep)
	}
	if err != nil {
		fail(err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := rep.result(defs, !cfg.trace)
	if err != nil {
		fail(err)
	}
	printHuman(w.name, cfg, rep, defs)
	b, err := json.Marshal(line)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printHuman prints the run's metrics one per line ahead of the JSON line.
func printHuman(name string, cfg config, rep *report, defs []metricDef) {
	mode := "end-to-end (untraced)"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s seed=%d seconds=%g: %s metrics\n", name, cfg.seed, cfg.seconds, mode)
	for _, d := range defs {
		fmt.Printf("   %-36s %14.4f %s\n", d.name, rep.values[d.name], d.unit)
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("   error_rate %.6f (%d failed of %d attempted)\n", errRate, rep.failed, rep.attempted)
	for _, msg := range failures.first {
		fmt.Printf("   failure: %s\n", msg)
	}
}
