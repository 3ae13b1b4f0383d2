// Command perfbench is the repository benchmark. One run starts real
// dexpanderd processes on loopback, drives one workload against them
// from this single load-generator process, checks every served answer
// against a direct library call, and prints every metric by name with
// its unit and sample count. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Build and run it from the root of a checkout through run.sh, which
// compiles dexpanderd and this program from source:
//
//	bash perfbench/run.sh --workload ingest-query --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON metrics are the end-to-end ones (see e2eDefs).
// With --trace 1 the same workload and seed run again with client spans,
// the served inputs are replayed in-process one call at a time at
// workers=1 and workers=nproc under layer spans, and the JSON metrics
// are the per-layer ones (see layerDefs). Spans are kept in memory and
// written under -out at the end of the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runLimit bounds one run end to end, builds excluded; a run that
// overruns it fails instead of printing a result.
const runLimit = 170 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	daemon   string // path of the dexpanderd binary
	out      string // directory for spans and saved results
	nproc    int
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: ingest-query, decompose-enumerate or count-dist")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the measured part of the run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced, layer-attributed variant")
	fs.StringVar(&cfg.daemon, "daemon", "", "dexpanderd binary to start")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for spans and saved results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()
	w, ok := workloads[cfg.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	case cfg.seconds < 1:
		return fmt.Errorf("seconds = %d must be positive", cfg.seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("trace = %d must be 0 or 1", trace)
	case cfg.daemon == "":
		return fmt.Errorf("no dexpanderd binary given (-daemon)")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchdog := time.AfterFunc(runLimit, cancel)
	defer watchdog.Stop()

	rep, err := runWorkload(ctx, cfg, w)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return fmt.Errorf("run exceeded %v", runLimit)
	}
	return rep.print(stdout, cfg)
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and the JSON result line, and
// saves the result (plus spans, when traced) under cfg.out so a traced
// run can show its end-to-end numbers beside the untraced run's.
func (r *report) print(w io.Writer, cfg config) error {
	if r.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  %s  nproc %d\n", cfg.workload, cfg.seed, cfg.seconds, mode, cfg.nproc)
	for _, p := range r.props {
		fmt.Fprintf(w, "property %-24s %s\n", p.name, p.value)
	}
	fmt.Fprintf(w, "end-to-end (%s):\n", mode)
	for _, m := range r.e2eLines {
		fmt.Fprintf(w, "  %s\n", m)
	}
	res := result{Correct: r.mismatches == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	saved := filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d-s%d-untraced.json", cfg.workload, cfg.seed, cfg.seconds))
	if !cfg.trace {
		for _, d := range e2eDefs {
			m, ok := r.e2e[d.name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s not measured", d.name)
			}
			res.Metrics[d.name] = jsonMetric{Value: m, Unit: d.unit}
		}
		if err := writeJSON(saved, res); err != nil {
			return err
		}
	} else {
		r.printTraced(w, saved)
		for _, d := range layerDefs {
			res.Metrics[d.name] = jsonMetric{Value: r.layers[d.name].value, Unit: d.unit}
		}
		path := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d-s%d.jsonl", cfg.workload, cfg.seed, cfg.seconds))
		if err := r.rec.write(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", r.rec.len(), path)
	}
	fmt.Fprintf(w, "checks: %d distinct outputs verified, %d mismatched; %d of %d operations failed\n",
		r.verified, r.mismatches, r.failed, r.attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// printTraced prints the per-layer metrics, each with the end-to-end
// metric and workload it should move, and the untraced run's end-to-end
// numbers for the same workload and seed when that run's result is
// saved, so the tracing overhead shows.
func (r *report) printTraced(w io.Writer, savedUntraced string) {
	fmt.Fprintln(w, "end-to-end, untraced run of the same workload and seed:")
	var prev result
	if data, err := os.ReadFile(savedUntraced); err != nil || json.Unmarshal(data, &prev) != nil {
		fmt.Fprintln(w, "  (none saved yet: run with --trace 0 first to compare)")
	} else {
		for _, d := range e2eDefs {
			u := prev.Metrics[d.name].Value
			t := r.e2e[d.name]
			ratio := 0.0
			if u != 0 {
				ratio = t / u
			}
			fmt.Fprintf(w, "  %-16s untraced %10.4f  traced %10.4f  traced/untraced %.3f %s\n", d.name, u, t, ratio, d.unit)
		}
	}
	fmt.Fprintln(w, "per-layer (traced):")
	for _, d := range layerDefs {
		m := r.layers[d.name]
		fmt.Fprintf(w, "  %-28s %12.4f %-6s n=%-6d moves %s\n", d.name, m.value, d.unit, m.n, d.moves)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
