package pfs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"redbud/internal/core"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// newReplicated mounts a MiF config with n OSTs, rf-way replication, a
// fault transport (so OSTs can crash), and a short retry budget (so a dead
// server is detected in a couple of simulated timeouts, not eight).
func newReplicated(t *testing.T, n, rf int) *FS {
	t.Helper()
	cfg := MiF(n)
	rc := replica.DefaultConfig()
	rc.RF = rf
	cfg.Replication = &rc
	cfg.RPC.Fault = &rpc.FaultConfig{Seed: 1}
	cfg.RPC.Retry = &rpc.RetryPolicy{TimeoutNs: 2 * sim.Millisecond, MaxRetries: 2}
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestReplicaPlacementNeverColocates(t *testing.T) {
	fs := newReplicated(t, 6, 3)
	for _, name := range []string{"a", "b", "c"} {
		f, err := fs.Create(fs.Root(), name, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep := fs.Replication()
		for c := 0; c < 6; c++ {
			set, _, ok := rep.ReplicaSet(f.Ino(), c)
			if !ok || len(set) != 3 {
				t.Fatalf("%s comp %d: set %v ok=%v, want 3 replicas", name, c, set, ok)
			}
			seen := make(map[int]bool)
			for _, r := range set {
				if seen[r] {
					t.Fatalf("%s comp %d: replicas co-located: %v", name, c, set)
				}
				seen[r] = true
			}
		}
	}
}

func TestReplicatedWriteFanoutAndReadRoundTrip(t *testing.T) {
	fs := newReplicated(t, 4, 2)
	f, err := fs.Create(fs.Root(), "r.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := int64(0); i < 16; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	fs.Flush()
	if err := f.Read(0, 256); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := fs.Replication().Stats()
	if st.FanoutWrites == 0 {
		t.Fatal("2-way replication produced no fan-out writes")
	}
	if st.SteeredReads == 0 {
		t.Fatal("reads bypassed steering")
	}
	if st.Failovers != 0 || st.OSTDownEvents != 0 {
		t.Fatalf("healthy run saw failures: %+v", st)
	}
}

// TestSteeringNeverSelectsDownReplica crashes an OST and reads the whole
// file twice: the first pass discovers the crash through its own timeout and
// fails over; once the server is suspected, steering must not route a single
// further read at it — and every read still succeeds.
func TestSteeringNeverSelectsDownReplica(t *testing.T) {
	fs := newReplicated(t, 4, 3)
	f, err := fs.Create(fs.Root(), "s.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := int64(0); i < 16; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	fs.Flush()
	if err := fs.CrashOST(1); err != nil {
		t.Fatal(err)
	}
	// The crashed server's disk stops accruing busy time while the others
	// keep serving, so load steering is drawn straight to it within a few
	// requests; the failover path must absorb that.
	for i := int64(0); i < 16; i++ {
		if err := f.Read(i*16, 16); err != nil {
			t.Fatalf("read %d across a crashed OST must fail over, got %v", i, err)
		}
	}
	rep := fs.Replication()
	if !rep.Down(1) {
		t.Fatal("crash went undetected over a full-file read")
	}
	st := rep.Stats()
	if st.Failovers == 0 {
		t.Fatal("detection must be counted as a failover")
	}
	routed := rep.SteeredReads(1)
	for i := int64(0); i < 16; i++ {
		if err := f.Read(i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	if got := rep.SteeredReads(1); got != routed {
		t.Fatalf("steering picked the down OST again: %d -> %d routed reads", routed, got)
	}
}

// TestRepairRestoresReplicationFactor is the core failover property: after
// an OST crash is detected, draining the repair engine rebuilds every
// component back to full strength on the survivors, and the data stays
// readable throughout.
func TestRepairRestoresReplicationFactor(t *testing.T) {
	fs := newReplicated(t, 6, 3)
	f, err := fs.Create(fs.Root(), "k.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := int64(0); i < 24; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	fs.Flush()
	if err := fs.CrashOST(0); err != nil {
		t.Fatal(err)
	}
	// Writes into the outage detect the crash, skip the dead member, and
	// leave its copies stale.
	for i := int64(0); i < 24; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
	}
	rep := fs.Replication()
	if !rep.Down(0) || rep.UnderReplicated() == 0 {
		t.Fatalf("outage not reflected: down=%v under=%d", rep.Down(0), rep.UnderReplicated())
	}
	if err := fs.RepairDrain(); err != nil {
		t.Fatal(err)
	}
	if !rep.FullyReplicated() {
		t.Fatalf("repair drain left %d components under-replicated", rep.UnderReplicated())
	}
	// The dead server is out of every rebuilt set, with no co-location.
	for c := 0; c < 6; c++ {
		set, _, ok := rep.ReplicaSet(f.Ino(), c)
		if !ok || len(set) != 3 {
			t.Fatalf("comp %d: set %v ok=%v", c, set, ok)
		}
		seen := make(map[int]bool)
		for _, r := range set {
			if r == 0 {
				t.Fatalf("comp %d: rebuilt set %v still holds the dead ost0", c, set)
			}
			if seen[r] {
				t.Fatalf("comp %d: rebuilt set %v co-locates", c, set)
			}
			seen[r] = true
		}
	}
	st := rep.Stats()
	if st.RepairsDone == 0 || st.RepairBlocks == 0 {
		t.Fatalf("repair left no trace: %+v", st)
	}
	// Full read-back with the server still dark.
	if err := f.Read(0, 24*16); err != nil {
		t.Fatalf("read-back after repair: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReviveClearsSuspicionAndCatchesUp revives a crashed OST and lets the
// repair engine catch its stale copies up in place (no set change).
func TestReviveClearsSuspicionAndCatchesUp(t *testing.T) {
	fs := newReplicated(t, 4, 2)
	f, err := fs.Create(fs.Root(), "v.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	for i := int64(0); i < 8; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	fs.Flush()
	if err := fs.CrashOST(1); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		if err := f.Write(stream, i*16, 16); err != nil {
			t.Fatal(err)
		}
	}
	rep := fs.Replication()
	if !rep.Down(1) {
		t.Fatal("outage writes did not detect the crash")
	}
	if err := fs.ReviveOST(1); err != nil {
		t.Fatal(err)
	}
	if rep.Down(1) {
		t.Fatal("revive must clear the suspicion")
	}
	if rep.UnderReplicated() == 0 {
		t.Fatal("stale copies must keep the file under-replicated after revive")
	}
	if err := fs.RepairDrain(); err != nil {
		t.Fatal(err)
	}
	if !rep.FullyReplicated() {
		t.Fatalf("catch-up drain left %d components under-replicated", rep.UnderReplicated())
	}
	// Catch-up repairs rebuild in place: ost1 is still a member.
	found := false
	for c := 0; c < 4; c++ {
		set, _, _ := rep.ReplicaSet(f.Ino(), c)
		for _, r := range set {
			if r == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("revived ost1 dropped from every replica set")
	}
}

// TestRF1PathIsByteIdentical is the compatibility guard: a mount configured
// with Replication RF=1 must mount no replica manager (one copy per
// component) and produce exactly the telemetry (metrics and simulated
// clock) of a mount with no replication config at all.
func TestRF1PathIsByteIdentical(t *testing.T) {
	run := func(rc *replica.Config) ([]byte, sim.Ns) {
		cfg := MiF(4)
		cfg.Replication = rc
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer(nil)
		cfg.Metrics = reg
		fs, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fs.SetTracer(tr)
		stream := core.StreamID{Client: 1, PID: 1}
		for _, name := range []string{"a.dat", "b.dat"} {
			f, err := fs.Create(fs.Root(), name, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 16; i++ {
				if err := f.Write(stream, i*16, 16); err != nil {
					t.Fatal(err)
				}
			}
			fs.Flush()
			if err := f.Read(0, 256); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return snap, tr.Now()
	}
	baseSnap, baseNow := run(nil)
	rf1Snap, rf1Now := run(&replica.Config{RF: 1})
	if baseNow != rf1Now {
		t.Fatalf("simulated clocks diverged: %d vs %d ns", baseNow, rf1Now)
	}
	if !bytes.Equal(baseSnap, rf1Snap) {
		t.Fatalf("RF=1 telemetry diverged from the unreplicated mount:\n%s\nvs\n%s",
			baseSnap, rf1Snap)
	}
}

// TestUnreplicatedCrashedOSTSurfacesError pins the one-copy error rules: on
// an unreplicated mount a component's only copy is never skipped, so every
// data operation touching a crashed OST returns the exhausted-retries error
// instead of degrading, and the failure leaves no suspicion behind once the
// server is revived.
func TestUnreplicatedCrashedOSTSurfacesError(t *testing.T) {
	cfg := MiF(4)
	cfg.RPC.Fault = &rpc.FaultConfig{Seed: 1}
	cfg.RPC.Retry = &rpc.RetryPolicy{TimeoutNs: 2 * sim.Millisecond, MaxRetries: 2}
	fs, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := core.StreamID{Client: 1, PID: 1}
	f, err := fs.Create(fs.Root(), "u.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(stream, 0, 256); err != nil {
		t.Fatal(err)
	}
	if err := fs.CrashOST(1); err != nil {
		t.Fatal(err)
	}
	// Block 64 starts the second stripe unit, which lives on OST 1.
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"write", func() error { return f.Write(stream, 64, 8) }},
		{"read", func() error { return f.Read(64, 8) }},
		{"truncate", func() error { return f.Truncate(128) }},
		{"fsync", f.Fsync},
		{"close", f.Close},
		{"delete", func() error { return fs.Delete(fs.Root(), "u.dat") }},
	} {
		if err := op.run(); !errors.Is(err, rpc.ErrRetriesExhausted) {
			t.Errorf("%s with ost1 crashed: err = %v, want %v", op.name, err, rpc.ErrRetriesExhausted)
		}
	}
	if err := fs.ReviveOST(1); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Create(fs.Root(), "v.dat", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(stream, 0, 256); err != nil {
		t.Fatalf("write after revive: %v", err)
	}
	if err := g.Read(0, 256); err != nil {
		t.Fatalf("read after revive: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close after revive: %v", err)
	}
}
