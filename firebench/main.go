// Command firebench is the fire-monitoring service's benchmark. It
// drives one of three workloads against the repository's public
// packages and prints every metric by name with its unit, then, as the
// last line of standard output, one JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	acquisition  pre-rendered MSG1 acquisitions serviced one at a time
//	             over a single strabon.Store (Service.Step minus the
//	             scene rendering)
//	backlog      the same window caught up by Service.RunWindow on the
//	             concurrent pipeline over a 4-slice sharded store
//	serve        the served stSPARQL endpoint: nproc clients replay a
//	             hot/cold query mix back to back beside a paced writer
//
// The times a run reports leave out the CPU time the hypervisor of a
// shared virtual machine took from it (see running) and are converted
// by a reference task timed throughout the run to a nominal host (see
// hostClock), so that other guests on the machine move them less; the
// listing also shows the wall-clock figures.
//
// With --trace 0 the metrics are the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 the run records spans around every
// public call into the layers and reports the per-layer metrics. The
// spans are written under .bench_build/firebench when the run ends.
//
// Run it through firebench/run.sh from the repository root, which
// builds this package first:
//
//	bash firebench/run.sh --workload acquisition --seed 42 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	budget  time.Duration
	tracing bool
	tracer  *tracer // nil unless tracing
}

// report is a workload's outcome. endToEnd is always filled; perLayer
// only on traced runs. Layers a workload never calls are absent from
// perLayer and reported as zero work.
type report struct {
	attempted int
	failed    int
	// failures describes the first few failed operations.
	failures []string
	endToEnd map[string]float64
	perLayer map[string]float64
	// aliases maps an end-to-end metric to the workload-specific name
	// it stands for, for the human-readable listing.
	aliases map[string]string
}

func newReport() *report {
	return &report{
		endToEnd: map[string]float64{},
		perLayer: map[string]float64{},
		aliases:  map[string]string{},
	}
}

// fail counts one failed operation and keeps its description.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*report, error){
	"acquisition": runAcquisition,
	"backlog":     runBacklog,
	"serve":       runServe,
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names and units it must report.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "acquisition", "acquisition, backlog or serve")
		seed     = flag.Int64("seed", 42, "input seed")
		seconds  = flag.Int("seconds", 30, "measurement budget in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "firebench:", err)
		os.Exit(1)
	}
}

// The benchmark definition the metrics are read from, and where traced
// runs leave their spans, relative to the repository root.
const (
	specPath = "BENCHMARK.json"
	traceDir = ".bench_build/firebench"
)

func run(workload string, seed int64, seconds, trace int) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	cfg := runConfig{seed: seed, budget: time.Duration(seconds) * time.Second, tracing: trace == 1}
	if cfg.tracing {
		cfg.tracer = newTracer()
	}

	fmt.Printf("# firebench workload=%s seed=%d seconds=%d trace=%d\n", workload, seed, seconds, trace)
	fmt.Printf("# host %s\n", hostFingerprint())
	rep, err := fn(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if cfg.tracing {
		traceOut := filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
		if err := cfg.tracer.write(traceOut); err != nil {
			return err
		}
		fmt.Printf("# %d spans written to %s\n", cfg.tracer.len(), traceOut)
	}

	res, err := assemble(spec, rep, cfg.tracing)
	if err != nil {
		return err
	}
	printListing(spec, rep)
	for _, f := range rep.failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func readSpec(path string) (*benchmarkSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no metrics", path)
	}
	return &spec, nil
}

// assemble builds the result line: every end-to-end metric on an
// untraced run, every per-layer metric on a traced one. A per-layer
// metric of a layer the workload never calls is zero work; a missing
// end-to-end metric or an unlisted name is a benchmark bug.
func assemble(spec *benchmarkSpec, rep *report, traced bool) (*result, error) {
	list, values := spec.EndToEnd, rep.endToEnd
	if traced {
		list, values = spec.PerLayer, rep.perLayer
	}
	listed := map[string]bool{}
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range list {
		listed[m.Name] = true
		v, ok := values[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if !listed[name] {
			return nil, fmt.Errorf("metric %s is not listed in the benchmark definition", name)
		}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}

// printListing prints every measured metric by name with its unit,
// end-to-end first.
func printListing(spec *benchmarkSpec, rep *report) {
	units := map[string]string{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, group := range []struct {
		title  string
		values map[string]float64
	}{{"end-to-end", rep.endToEnd}, {"per-layer", rep.perLayer}} {
		if len(group.values) == 0 {
			continue
		}
		fmt.Printf("# %s\n", group.title)
		names := make([]string, 0, len(group.values))
		for n := range group.values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			alias := ""
			if a, ok := rep.aliases[n]; ok {
				alias = "  (" + a + ")"
			}
			fmt.Printf("%-36s %14.4f %s%s\n", n, group.values[n], units[n], alias)
		}
	}
	share := 0.0
	if rep.attempted > 0 {
		share = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%-36s %14d / %d failed (error_share %.4f)\n", "operations", rep.attempted, rep.failed, share)
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() string {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d os=%s/%s cpu=%q",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, model)
}
