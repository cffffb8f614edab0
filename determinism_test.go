package redbud_test

// Determinism guards. Simulated results are computed on one serial path:
// every data-path fan-out visits the IO servers in stripe-index order on
// the calling goroutine (DESIGN.md §13). These tests pin what that
// promises: the simulated results — every telemetry metric, byte for
// byte — do not depend on how many cores the Go scheduler has, repeat
// exactly run to run, and fault-injected runs replay their seeded fault
// schedule exactly.

import (
	"bytes"
	"runtime"
	"testing"

	"redbud/internal/pfs"
	"redbud/internal/rpc"
	"redbud/internal/telemetry"
	"redbud/internal/workload"
)

// microSnapshot runs the fig6a micro-benchmark with a registry attached
// and returns the registry's JSON document — the same artifact the
// `make smoke` -telemetry guard compares.
func microSnapshot(t *testing.T, mutate func(*pfs.Config)) []byte {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := fig6FS(pfs.PolicyOnDemand)
	cfg.Metrics = reg
	if mutate != nil {
		mutate(&cfg)
	}
	if _, err := workload.RunMicro(cfg, workload.DefaultMicroConfig(8)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withGOMAXPROCS runs fn under the given scheduler width.
func withGOMAXPROCS(n int, fn func() []byte) []byte {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

// TestTelemetryIdenticalAcrossGOMAXPROCS is the in-process version of the
// smoke telemetry-identity guard: the registry document must be
// byte-identical between GOMAXPROCS=1 and GOMAXPROCS=NumCPU.
func TestTelemetryIdenticalAcrossGOMAXPROCS(t *testing.T) {
	one := withGOMAXPROCS(1, func() []byte { return microSnapshot(t, nil) })
	all := withGOMAXPROCS(runtime.NumCPU(), func() []byte { return microSnapshot(t, nil) })
	if !bytes.Equal(one, all) {
		t.Fatalf("telemetry diverges across GOMAXPROCS: %d bytes vs %d bytes",
			len(one), len(all))
	}
	if len(one) == 0 {
		t.Fatal("empty telemetry snapshot: the workload did not instrument")
	}
}

// TestTelemetryIdenticalRepeatedParallel runs the same workload twice in
// one process: the simulated results must not depend on state left
// behind by an earlier mount.
func TestTelemetryIdenticalRepeatedParallel(t *testing.T) {
	a := microSnapshot(t, nil)
	b := microSnapshot(t, nil)
	if !bytes.Equal(a, b) {
		t.Fatal("telemetry diverges between identical runs")
	}
}

// TestFaultInjectionDeterministicAcrossGOMAXPROCS seeds the RPC fault
// injector — every fault decision is one draw from a shared sequential
// RNG — and checks the full registry document (fault events, retry
// counters, replay hits included) replays byte-identically under both
// scheduler widths.
func TestFaultInjectionDeterministicAcrossGOMAXPROCS(t *testing.T) {
	faulty := func(cfg *pfs.Config) {
		cfg.RPC.Fault = &rpc.FaultConfig{
			Seed: 42,
			Data: rpc.FaultRates{Drop: 0.02, RespDrop: 0.02, Error: 0.01},
			Meta: rpc.FaultRates{Drop: 0.01},
		}
	}
	one := withGOMAXPROCS(1, func() []byte { return microSnapshot(t, faulty) })
	all := withGOMAXPROCS(runtime.NumCPU(), func() []byte { return microSnapshot(t, faulty) })
	if !bytes.Equal(one, all) {
		t.Fatal("fault-injected telemetry diverges across GOMAXPROCS")
	}
}
