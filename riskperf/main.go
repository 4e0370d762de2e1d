// Command riskperf is the repository benchmark. It drives three named
// workloads through the public entry points of the batch and service
// layers, checks their outputs, and prints one JSON object as the last
// line of standard output: the end-to-end metrics, or with --trace 1 the
// per-layer metrics taken from spans recorded around each call into a
// layer. README.md explains the workloads and what each metric should
// move.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash riskperf/run.sh --workload paper-commodity --seed 1 --seconds 28 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/economy"
	"repro/internal/registry"
	"repro/internal/scheduler"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings.
type options struct {
	seed     int64
	seconds  time.Duration
	traced   bool
	spansDir string
	out      io.Writer // human-readable progress and distributions
}

// outcome is what a workload hands back for the result line.
type outcome struct {
	attempted, failed int64
	metrics           metricSet
}

// namedWorkload is one named input set of the benchmark.
type namedWorkload struct {
	name string
	run  func(options) (*outcome, error)
}

var workloads = []namedWorkload{
	{"paper-commodity", func(o options) (*outcome, error) { return runBatch(paperCommodity, o) }},
	{"federated-bid-faults", func(o options) (*outcome, error) { return runBatch(federatedBidFaults, o) }},
	{"fleet-observe", runFleet},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("riskperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-commodity, federated-bid-faults, fleet-observe")
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", 28, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "riskperf: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	var w *namedWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "riskperf: unknown workload %q\n", *name)
		return 2
	}
	o := options{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, out: stdout,
	}
	if *spansDir != "" {
		o.spansDir = filepath.Join(*spansDir, w.name)
	}
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "riskperf: %s: %v\n", w.name, err)
		return 1
	}
	specs := endToEnd
	if o.traced {
		specs = perLayer()
	}
	line, err := resultLine(res, specs)
	if err != nil {
		fmt.Fprintf(stderr, "riskperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "attempted %d, failed %d, output check %s\n", res.attempted, res.failed, verdict(res.failed))
	fmt.Fprintln(stdout, string(line))
	return 0
}

func verdict(failed int64) string {
	if failed == 0 {
		return "passed"
	}
	return "FAILED"
}

// metricSpec names one printed metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed by every workload.
// "submit" is each workload's unit of work (see README.md): one suite —
// experiment.Run over its 30 cells, then the analysis — for the batch
// workloads, one job submission for the fleet workload.
var endToEnd = []metricSpec{
	{"ops_per_cpu_s", "ops/cpu_s"},
	{"submit_p50_ms", "ms"},
	{"submit_p90_ms", "ms"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// policies spells every Table V policy the way metric names do.
var policies = []struct{ name, slug string }{
	{"FCFS-BF", "fcfs-bf"},
	{"SJF-BF", "sjf-bf"},
	{"EDF-BF", "edf-bf"},
	{"Libra", "libra"},
	{"Libra+$", "libra-dollar"},
	{"LibraRiskD", "libra-riskd"},
	{"FirstReward", "firstreward"},
}

func slugOf(policy string) string {
	for _, p := range policies {
		if p.name == policy {
			return p.slug
		}
	}
	return policy
}

// federation is the registry preset the federated workload routes through.
const federation = "hetero4"

// perLayer lists the metrics of a traced run. Every traced run prints all
// of them; a layer the workload never calls reads 0.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit string) { out = append(out, metricSpec{name, unit}) }
	for _, p := range policies {
		add("experiment.cell_s."+p.slug, "s")
	}
	add("experiment.pool_util", "ratio")
	add("workload.generate_ms", "ms")
	add("workload.prepare_ms", "ms")
	add("qos.synthesize_ms", "ms")
	for _, layer := range []struct {
		name  string
		model economy.Model
	}{{"scheduler", economy.Commodity}, {"broker", economy.BidBased}} {
		for _, s := range scheduler.ForModel(layer.model) {
			add(layer.name+".run_ms."+slugOf(s.Name), "ms")
			add(layer.name+".mallocs_per_job."+slugOf(s.Name), "count")
		}
	}
	for _, p := range policies {
		add("scheduler.accept_ratio."+p.slug, "ratio")
	}
	fed, err := registry.ParseFederation(federation)
	if err != nil {
		panic(err) // the preset name is a constant of this program
	}
	for _, c := range fed.Clusters {
		add("broker.routed_share."+c.Name, "ratio")
	}
	add("faults.killed", "count")
	add("risk.analyze_ms", "ms")
	add("plot.render_ms", "ms")
	add("load.client_us", "us")
	add("control.self_us", "us")
	add("serve.handler_us", "us")
	add("serve.self_us", "us")
	add("scheduler.submit_us", "us")
	add("obs.journal_append_us", "us")
	add("streamrisk.fold_us", "us")
	add("streamrisk.snapshot_us", "us")
	add("streamrisk.read_p50_ms", "ms")
	add("streamrisk.read_p90_ms", "ms")
	add("streamrisk.lag_us", "us")
	add("streamrisk.delivered_ratio", "ratio")
	add("streamrisk.resyncs", "count")
	add("serve.requests_rejected", "count")
	add("control.recoveries", "count")
	add("control.migrations", "count")
	add("go.cpu_s", "s")
	add("go.gc_count", "count")
	add("go.gc_pause_ms", "ms")
	add("go.alloc_mb", "MB")
	add("go.mallocs", "count")
	add("trace.ops_per_cpu_s", "ops/cpu_s")
	return out
}

// metricSet collects measured values by metric name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// resultLine renders the final JSON line with exactly the given metrics.
// An unset metric reads 0: the workload never crossed that layer.
func resultLine(res *outcome, specs []metricSpec) ([]byte, error) {
	out := resultJSON{
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricJSON, len(specs)),
	}
	for _, s := range specs {
		v := res.metrics[s.name]
		switch {
		case math.IsInf(v, 1): // a quantile that fell on a failed request
			v = math.MaxFloat64
		case math.IsNaN(v) || math.IsInf(v, -1):
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out.Metrics[s.name] = metricJSON{Value: v, Unit: s.unit}
	}
	return json.Marshal(out)
}
