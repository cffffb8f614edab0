package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"redbud/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric definitions")

// testSizes runs every workload's full call mix at a fraction of its size.
var testSizes = sizes{
	stream:   streamSize{Clients: 2, Threads: 2, FileBlocks: 8192, WriteBlocks: 4, Segments: 32, ReadBlocks: 16},
	meta:     metaSize{Clients: 2, FilesPerDir: 100},
	postmark: postmarkSize{Clients: 2, FilesPerClient: 10, TransactionsPerClient: 40, MinBlocks: 1, MaxBlocks: 8},
}

// runBench runs benchMain and decodes its last output line.
func runBench(t *testing.T, list []workload, args ...string) (int, resultJSON, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := benchMain(args, list, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultJSON
	if code != 2 && out.Len() > 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, out.String())
		}
	}
	return code, res, out.String() + errb.String()
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, w := range workloads(testSizes) {
		for _, trace := range []string{"0", "1"} {
			code, res, out := runBench(t, workloads(testSizes),
				"--workload", w.name, "--seed", "5", "--seconds", "0.05", "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.name, trace, code, res, out)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
			}
			// The checks ran: every round adds its correctness checks to
			// the calls, and the run adds the determinism checks.
			if trace == "0" && res.Metrics["success_rate"].Value != 1 {
				t.Errorf("%s: success_rate %v", w.name, res.Metrics["success_rate"].Value)
			}
			if !strings.Contains(out, "checks: attempted=") || res.Attempted < 4 {
				t.Errorf("%s trace=%s: checks not reported\n%s", w.name, trace, out)
			}
		}
	}
}

func TestEndToEndMetricsNeverZero(t *testing.T) {
	for _, w := range workloads(testSizes) {
		_, res, out := runBench(t, workloads(testSizes), "--workload", w.name, "--seconds", "0.05")
		for _, d := range endToEnd {
			if res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: %s = %v\n%s", w.name, d.name, res.Metrics[d.name].Value, out)
			}
		}
	}
}

// fakeInst is a stand-in system whose outputs a test controls.
type fakeInst struct {
	seed    uint64
	round   *int
	badSim  bool // simulated output drifts between rounds
	badSeed bool // simulated output ignores the seed
	badChk  bool // the correctness check fails
}

func (f *fakeInst) run(c *caller) error { return c.end(opPFSWrite, c.begin(), nil) }

func (f *fakeInst) sim() ([]simMetric, error) {
	v := float64(f.seed)
	if f.badSeed {
		v = 1
	}
	if f.badSim {
		*f.round++
		v += float64(*f.round)
	}
	return []simMetric{{"sim_s", "sim_s", v}}, nil
}

func (f *fakeInst) check(*checkTimes) (int, []string) {
	if f.badChk {
		return 1, []string{"forced failure"}
	}
	return 1, nil
}

func (f *fakeInst) close() {}

func fakeWorkload(proto fakeInst) []workload {
	round := 0
	return []workload{{name: "fake", why: "test", setup: func(seed uint64, _ *telemetry.Registry, _ *caller) (instance, error) {
		f := proto
		f.seed, f.round = seed, &round
		return &f, nil
	}}}
}

func TestChecksFailTheRun(t *testing.T) {
	for name, proto := range map[string]fakeInst{
		"failed check":       {badChk: true},
		"simulated drift":    {badSim: true},
		"seed has no effect": {badSeed: true},
	} {
		code, res, out := runBench(t, fakeWorkload(proto), "--workload", "fake", "--seconds", "0.01")
		if code != 1 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: exit %d, result %+v\n%s", name, code, res, out)
		}
	}
	code, res, out := runBench(t, fakeWorkload(fakeInst{}), "--workload", "fake", "--seconds", "0.01")
	if code != 0 || !res.Correct {
		t.Errorf("clean fake: exit %d, result %+v\n%s", code, res, out)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fake", "--trace", "2"},
		{"--workload", "fake", "--seconds", "0"},
	} {
		if code, _, _ := runBench(t, fakeWorkload(fakeInst{}), args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"redbud/internal/mdfs.(*FS).appendDirent": "mdfs",
		"redbud/internal/netsim.(*Link).Send":     "netsim",
		"redbud/internal/replica.(*Manager).Down": "other",
		"main.(*caller).end":                      "bench",
		"runtime.mallocgc":                        "",
		"sort.Slice":                              "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink uint64

// spin burns CPU in this package. It keeps its state in a local so the
// race detector's instrumentation stays out of the loop.
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	spinSink = x
}

func TestFoldProfileAttributesEverySample(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got := map[string]int64{}
	if err := foldProfile(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	var total int64
	for l, n := range got {
		if layerIndex(l) < 0 {
			t.Errorf("sample assigned to unknown layer %q", l)
		}
		total += n
	}
	if total == 0 || got["bench"]*2 < total {
		t.Errorf("spinning in the benchmark gave %v", got)
	}
	if err := foldProfile([]byte("not a profile"), got); err == nil {
		t.Error("garbage profile decoded")
	}
}

func layerIndex(l string) int {
	for i, x := range layers {
		if x == l {
			return i
		}
	}
	return -1
}

// benchmarkFile is the layout of ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricFile   `json:"end_to_end"`
	PerLayer   []metricFile   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricFile struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads(fullSizes) {
		f.Workloads = append(f.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.bound
		f.EndToEnd = append(f.EndToEnd, metricFile{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer() {
		f.PerLayer = append(f.PerLayer, metricFile{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return f
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("../BENCHMARK.json is stale; rerun with -update")
	}
	var f benchmarkFile
	if err := json.Unmarshal(got, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 || len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json exceeds its limits: %d per-layer, %d end-to-end, %d bytes",
			len(f.PerLayer), len(f.EndToEnd), len(got))
	}
	largest := 0.0
	for _, m := range f.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		} else {
			largest = max(largest, *m.Bound)
		}
	}
	for _, m := range f.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || *m.Bound != largest) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound: %+v", m)
		}
	}
}
