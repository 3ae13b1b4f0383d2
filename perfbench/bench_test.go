package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dexpander/internal/gen"
	"dexpander/internal/graph"
	"dexpander/internal/service"
	"dexpander/internal/triangle"
)

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json's metric lists to
// the tables the program prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	if len(b.EndToEnd) != len(e2eDefs) || len(b.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, tables have %d/%d", len(b.EndToEnd), len(b.PerLayer), len(e2eDefs), len(layerDefs))
	}
	for i, d := range e2eDefs {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, table %+v", i, m, d)
		}
	}
	for i, d := range layerDefs {
		m := b.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table %+v", i, m, d)
		}
	}
}

// TestWrongDigestCountsAsFailure feeds the checker a served count whose
// checksum is off by one bit: the request must count as failed.
func TestWrongDigestCountsAsFailure(t *testing.T) {
	spec := gen.Spec{Family: "ring", Params: map[string]float64{"blocks": 4, "size": 6}, Seed: 3}
	gi := &graphIn{label: "ring", spec: &spec}
	g, err := gi.graph()
	if err != nil {
		t.Fatal(err)
	}
	set := triangle.SetKernel(graph.WholeGraph(g), 1, triangle.KernelRank)
	good := digest(set.Checksum())
	bad := digest(set.Checksum() ^ 1)
	for _, tc := range []struct {
		checksum string
		fail     bool
	}{{good, false}, {bad, true}} {
		s := &sample{
			op:  &op{kind: kindQuery, graph: gi, params: service.CountParams{Kernel: "auto"}},
			res: &service.Result{Checksum: tc.checksum, Triangles: set.Len()},
		}
		newReplayer(nil, 1, false).checkAll(groupKeys([]*sample{s}), 1)
		if s.ok() == tc.fail {
			t.Errorf("checksum %s: ok() = %v, want %v", tc.checksum, s.ok(), !tc.fail)
		}
	}
}

// TestOpenLoopReportsLag drives an in-process service on the open loop
// and checks that every scheduled request reports how late it was
// handed over, and is timed from its due time.
func TestOpenLoopReportsLag(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	spec := gen.Spec{Family: "ring", Params: map[string]float64{"blocks": 4, "size": 6}, Seed: 3}
	gi := &graphIn{label: "ring", spec: &spec}
	ctx := context.Background()
	d := newLoadGen(srv.URL, 2)
	if s := d.closedLoop(ctx, []*op{{kind: kindSpec, graph: gi}}); !s[0].ok() {
		t.Fatalf("register: %v", s[0].err)
	}
	var ops []*op
	for i := 0; i < 20; i++ {
		ops = append(ops, &op{kind: kindQuery, graph: gi, params: service.CountParams{Kernel: "auto"},
			tenant: tenants[i%len(tenants)], due: time.Duration(i) * 5 * time.Millisecond})
	}
	samples, lags := d.openLoop(ctx, ops, 2)
	if len(lags) != len(ops) || len(samples) != len(ops) {
		t.Fatalf("%d lags and %d samples for %d requests", len(lags), len(samples), len(ops))
	}
	for i, lag := range lags {
		if lag < 0 {
			t.Errorf("request %d handed over %v before it was due", i, -lag)
		}
	}
	for _, s := range samples {
		if !s.ok() || s.sent < s.due || s.latency() < s.done-s.sent {
			t.Errorf("sample due %v sent %v done %v err %v", s.due, s.sent, s.done, s.err)
		}
	}
}

// TestWorkloadsAtShortestLength runs every workload at --seconds 1,
// untraced and traced, against real dexpanderd processes, and checks
// that the run is correct and every named metric prints with its unit.
func TestWorkloadsAtShortestLength(t *testing.T) {
	if testing.Short() {
		t.Skip("starts dexpanderd fleets")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dexpanderd")
	build := exec.Command("go", "build", "-o", bin, "dexpander/cmd/dexpanderd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dexpanderd: %v\n%s", err, out)
	}
	lagLine := regexp.MustCompile(`loadgen\.lag_p99_ms\s+(\S+)\s+ms\s+n=(\d+)`)
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-daemon", bin, "-out", dir, "--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				defs := e2eDefs
				if trace == "1" {
					defs = layerDefs
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s printed as %+v, want unit %s", d.name, m, d.unit)
					}
				}
				for _, d := range e2eDefs {
					if v := res.Metrics[d.name].Value; trace == "0" && !(v > 0) {
						t.Errorf("end-to-end %s = %v, want > 0", d.name, v)
					}
				}
				if name == "ingest-query" && trace == "1" {
					m := lagLine.FindStringSubmatch(out.String())
					if m == nil {
						t.Fatalf("no loadgen.lag_p99_ms line in\n%s", out.String())
					}
					if n, _ := strconv.Atoi(m[2]); n == 0 {
						t.Errorf("open-loop lag reported over no requests: %s", m[0])
					}
				}
			})
		}
	}
}
