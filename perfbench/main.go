// Command perfbench is the repository's benchmark. It drives one workload
// through the simulator's public entry points in a closed loop from one
// goroutine, measures what the simulator costs to run on the host, checks
// that every round's outputs are correct and deterministic, and prints
// every metric by name and unit, ending with one JSON line.
//
//	perfbench --workload shared-stream --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing attached to the
// system under test. --trace 1 adds a traced phase (telemetry registry,
// CPU profile, per-call spans) and reports the per-layer metrics. See
// README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"syscall"

	"redbud/internal/telemetry"
)

func main() {
	os.Exit(benchMain(os.Args[1:], workloads(fullSizes), os.Stdout, os.Stderr))
}

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

const (
	// minRounds bounds the rounds of each timed phase from below.
	minRounds = 3
	// setupSamples is the least number of set-ups behind setup_s.
	setupSamples = 11
	// refPasses is the number of refWork passes in one reference sample.
	refPasses = 8
)

// refSink keeps refWork's result alive.
var refSink uint64

// reference returns the CPU time of one refWork pass, the median of
// refPasses passes made with no system under test in memory.
func reference() int64 {
	runtime.GC()
	ns := make([]float64, refPasses)
	for i := range ns {
		t := cpuNs()
		refSink += refWork()
		ns[i] = float64(cpuNs() - t)
	}
	return int64(median(ns))
}

// roundStats is one round's measurement.
type roundStats struct {
	setupNs  int64
	runNs    int64
	cpuNs    int64 // process CPU time, user plus system, of the measured calls
	calls    int64 // measured calls
	allCalls int64 // measured plus set-up calls
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  uint64
	liveHeap uint64 // heap in use after the measured calls, garbage collected
	refNs    int64  // mean of the reference samples just before and after the round
	sim      []simMetric
}

// runState accumulates a whole run.
type runState struct {
	w       workload
	opt     options
	setups  []float64 // seconds
	rounds  []roundStats
	traced  []roundStats
	spans   [numOps][]int64
	samples map[string]int64
	regVals map[string]float64
	times   checkTimes

	attempted, failed int64
	failures          []string
}

func benchMain(args []string, list []workload, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "host seconds to measure")
	trace := fl.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	var names []string
	for _, cand := range list {
		names = append(names, cand.name)
		if cand.name == *name {
			c := cand
			w = &c
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", names)
		return 2
	}
	r := &runState{w: *w, opt: options{seed: *seed, seconds: *seconds, trace: *trace == 1}}
	if err := r.run(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r.report(stdout)
	if r.failed > 0 {
		for _, f := range r.failures {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// round sets up a fresh system, runs the workload once and checks it.
// With traced set it attaches a registry, profiles the measured calls and
// records their spans.
func (r *runState) round(seed uint64, traced bool) (roundStats, error) {
	var st roundStats
	var reg *telemetry.Registry
	c := &caller{}
	if traced {
		reg = telemetry.NewRegistry()
	}
	runtime.GC()
	start := now()
	inst, err := r.w.setup(seed, reg, c)
	st.setupNs = since(start)
	r.attempted += c.calls
	r.failed += c.failed
	if err != nil {
		return st, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	setupCalls := c.calls

	run := &caller{}
	var prof bytes.Buffer
	if traced {
		run.spans = &r.spans
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return st, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNs()
	start = now()
	err = inst.run(run)
	st.runNs = since(start)
	st.cpuNs = cpuNs() - cpu0
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
	}
	r.attempted += run.calls
	r.failed += run.failed
	if err != nil {
		return st, fmt.Errorf("%s: %w", r.w.name, err)
	}
	st.calls, st.allCalls = run.calls, setupCalls+run.calls
	st.mallocs, st.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	st.gcCycles, st.gcPause = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	// Two collections: the first moves pooled objects to the pools'
	// victim caches, the second frees them, so only the system's live
	// state remains.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	st.liveHeap = m1.HeapAlloc

	if st.sim, err = inst.sim(); err != nil {
		return st, fmt.Errorf("simulated metrics: %w", err)
	}
	n, bad := inst.check(&r.times)
	r.attempted += int64(n)
	r.failed += int64(len(bad))
	r.failures = append(r.failures, bad...)

	if traced {
		if r.samples == nil {
			r.samples = map[string]int64{}
		}
		if err := foldProfile(prof.Bytes(), r.samples); err != nil {
			return st, err
		}
		if r.regVals == nil {
			r.regVals = map[string]float64{}
			registryMetrics(reg, st.allCalls, r.regVals)
		}
	}
	return st, nil
}

// timed runs rounds until the phase's share of the run time has passed
// and at least minRounds have completed. Untraced rounds also give
// setup_s samples.
func (r *runState) timed(seconds float64, traced bool) ([]roundStats, error) {
	var out []roundStats
	start := now()
	ref := reference()
	for len(out) < minRounds || float64(since(start)) < seconds*1e9 {
		st, err := r.round(r.opt.seed, traced)
		if err != nil {
			return out, err
		}
		next := reference()
		st.refNs = (ref + next) / 2
		ref = next
		if !traced {
			r.setups = append(r.setups, float64(st.setupNs)/1e9)
		}
		out = append(out, st)
	}
	return out, nil
}

func (r *runState) run() error {
	untracedShare := 1.0
	if r.opt.trace {
		untracedShare = 1.0 / 3
	}
	// The other-seed round of the determinism check runs first, so it
	// also warms the process (heap growth, lazy runtime set-up) before
	// anything is timed.
	other, err := r.round(r.opt.seed+1, false)
	if err != nil {
		return err
	}
	if r.rounds, err = r.timed(r.opt.seconds*untracedShare, false); err != nil {
		return err
	}
	// More set-ups, so setup_s is a median of several samples even when
	// few rounds fit in the run.
	for len(r.setups) < setupSamples {
		runtime.GC()
		start := now()
		inst, err := r.w.setup(r.opt.seed, nil, &caller{})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, float64(since(start))/1e9)
		inst.close()
	}

	// Determinism: every repeat, a round at GOMAXPROCS=1 and the traced
	// rounds must reproduce the first round's simulated outputs; another
	// seed must change at least one of them.
	ref := r.rounds[0].sim
	check := func(ok bool, format string, args ...any) {
		r.attempted++
		if !ok {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	for i, st := range r.rounds[1:] {
		check(slices.Equal(ref, st.sim), "round %d simulated outputs differ from round 0", i+1)
	}
	prev := runtime.GOMAXPROCS(1)
	serial, err := r.round(r.opt.seed, false)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	check(slices.Equal(ref, serial.sim), "GOMAXPROCS=1 simulated outputs differ from GOMAXPROCS=%d", prev)
	check(!slices.Equal(ref, other.sim), "seed %d gives the same simulated outputs as seed %d", r.opt.seed+1, r.opt.seed)

	if r.opt.trace {
		if r.traced, err = r.timed(r.opt.seconds*(1-untracedShare), true); err != nil {
			return err
		}
		for i, st := range r.traced {
			check(slices.Equal(ref, st.sim), "traced round %d simulated outputs differ from untraced", i)
		}
	}
	return nil
}

// roundRate is one round's measured calls per wall-clock second.
func roundRate(st roundStats) float64 { return float64(st.calls) / (float64(st.runNs) / 1e9) }

// cpuRate is one round's measured calls per second of process CPU time.
func cpuRate(st roundStats) float64 { return float64(st.calls) / (float64(st.cpuNs) / 1e9) }

// opsPerSec is the median over rounds of measured calls per wall-clock
// second.
func opsPerSec(rounds []roundStats) float64 { return median(collect(rounds, roundRate)) }

// perOp is the median over rounds of f(round) per measured call.
func perOp(rounds []roundStats, f func(roundStats) float64) float64 {
	return median(collect(rounds, func(st roundStats) float64 { return f(st) / float64(st.calls) }))
}

// cpuNs returns the process's CPU time, user plus system, in ns.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSMB returns the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (r *runState) endToEndValues() map[string]float64 {
	sim := map[string]float64{}
	for _, m := range r.rounds[0].sim {
		sim[m.name] = m.value
	}
	return map[string]float64{
		"ops_per_ref":        median(collect(r.rounds, func(s roundStats) float64 { return cpuRate(s) * float64(s.refNs) / 1e9 })),
		"setup_s":            median(r.setups),
		"allocs_per_op":      perOp(r.rounds, func(s roundStats) float64 { return float64(s.mallocs) }),
		"alloc_bytes_per_op": perOp(r.rounds, func(s roundStats) float64 { return float64(s.bytes) }),
		"live_heap_mb":       median(collect(r.rounds, func(s roundStats) float64 { return float64(s.liveHeap) / (1 << 20) })),
		"success_rate":       1 - float64(r.failed)/float64(max(r.attempted, 1)),
		"sim_s":              sim["sim_s"],
	}
}

// perLayerValues computes the traced metrics; a metric the workload does
// not produce is absent and reads 0.
func (r *runState) perLayerValues() map[string]float64 {
	out := map[string]float64{}
	var total int64
	for _, n := range r.samples {
		total += n
	}
	for _, l := range layers {
		if total > 0 {
			out[l+".self_share"] = float64(r.samples[l]) / float64(total)
		}
	}
	out["profile.samples"] = float64(total)
	rounds := float64(len(r.traced))
	for _, s := range spanOps {
		d := slices.Clone(r.spans[s.o])
		slices.Sort(d)
		n := opNames[s.o]
		out[n+".p50_us"] = float64(percentile(d, 50)) / 1e3
		if s.p99 && len(d) >= p99Samples {
			out[n+".p99_us"] = float64(percentile(d, 99)) / 1e3
		}
		out[n+".calls"] = float64(len(d)) / rounds
	}
	out["mdfs.fsck_ms"] = median(r.times.fsckMs)
	out["ost.check_ms"] = median(r.times.checkMs)
	for k, v := range r.regVals {
		out[k] = v
	}
	out["runtime.gc_cycles"] = median(collect(r.traced, func(s roundStats) float64 { return float64(s.gcCycles) }))
	out["runtime.gc_pause_ms"] = median(collect(r.traced, func(s roundStats) float64 { return float64(s.gcPause) / 1e6 }))
	for _, m := range r.rounds[0].sim {
		if m.name != "sim_s" {
			out[m.name] = m.value
		}
	}
	return out
}

func collect(rounds []roundStats, f func(roundStats) float64) []float64 {
	v := make([]float64, len(rounds))
	for i, st := range rounds {
		v[i] = f(st)
	}
	return v
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// metricJSON is one metric of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of the output.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64, into map[string]metricJSON) {
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.name, v, d.unit)
		if into != nil {
			into[d.name] = metricJSON{Value: v, Unit: d.unit}
		}
	}
}

func (r *runState) report(w io.Writer) {
	mode := "untraced"
	if r.opt.trace {
		mode = "untraced+traced"
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g mode=%s\n", r.w.name, r.opt.seed, r.opt.seconds, mode)
	fmt.Fprintf(w, "# gomaxprocs=%d numcpu=%d go=%s commit=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	fmt.Fprintf(w, "# why: %s\n", r.w.why)
	fmt.Fprintf(w, "# rounds: untraced=%d traced=%d setups=%d calls/round=%d\n",
		len(r.rounds), len(r.traced), len(r.setups), r.rounds[0].calls)
	fmt.Fprintf(w, "# wall-clock ops_per_s: median %.6g, by round %.6g\n", opsPerSec(r.rounds), collect(r.rounds, roundRate))
	fmt.Fprintf(w, "# host speed: ops_per_cpu_s median %.6g; reference pass median %.6g ms CPU\n",
		median(collect(r.rounds, cpuRate)), median(collect(r.rounds, func(s roundStats) float64 { return float64(s.refNs) / 1e6 })))
	fmt.Fprintf(w, "# peak RSS of the process: %.1f MB\n", maxRSSMB())
	res := resultJSON{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	res.Correct = r.failed == 0

	fmt.Fprintln(w, "end-to-end (untraced):")
	var jsonE2E map[string]metricJSON
	if !r.opt.trace {
		jsonE2E = res.Metrics
	}
	printMetrics(w, endToEnd, r.endToEndValues(), jsonE2E)
	fmt.Fprintln(w, "simulated outputs:")
	for _, m := range r.rounds[0].sim {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	if r.opt.trace {
		fmt.Fprintf(w, "# tracing overhead: wall-clock ops_per_s untraced=%.6g traced=%.6g\n", opsPerSec(r.rounds), opsPerSec(r.traced))
		vals := r.perLayerValues()
		if len(r.w.idle) > 0 {
			idle := 0.0
			for _, l := range r.w.idle {
				idle += vals[l+".self_share"]
			}
			fmt.Fprintf(w, "# plane separation: %v self share %.4f (expected below %g)\n", r.w.idle, idle, idleShare)
		}
		fmt.Fprintln(w, "per-layer (traced):")
		printMetrics(w, perLayer(), vals, res.Metrics)
	}
	fmt.Fprintf(w, "checks: attempted=%d failed=%d\n", r.attempted, r.failed)
	line, _ := json.Marshal(res) // a map of plain values always encodes
	fmt.Fprintln(w, string(line))
}
