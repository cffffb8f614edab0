package pfs

import (
	"reflect"
	"testing"

	"redbud/internal/core"
	"redbud/internal/replica"
	"redbud/internal/telemetry"
)

// rpcCallsByOp returns the registry's rpc_calls counters keyed by op.
func rpcCallsByOp(reg *telemetry.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range reg.Snapshot() {
		if s.Name == "rpc_calls" {
			out[telemetry.ParseLabels(s.Labels)["op"]] += s.Value
		}
	}
	return out
}

// TestWriteRPCBudget pins the messages one uncached write sends: one
// obj-write per stripe piece and replica, then one extent-churn report to
// the MDS. The extent counts the churn charge needs are read from the
// servers' maps, so they add no RPC.
func TestWriteRPCBudget(t *testing.T) {
	for _, rf := range []int{1, 2} {
		cfg := MiF(4)
		if rf > 1 {
			rc := replica.DefaultConfig()
			rc.RF = rf
			cfg.Replication = &rc
		}
		reg := telemetry.NewRegistry()
		cfg.Metrics = reg
		fs, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(fs.Root(), "budget.dat", 0)
		if err != nil {
			t.Fatal(err)
		}
		stream := core.StreamID{Client: 1, PID: 1}
		// Stripe unit 64 over 4 OSTs: [32,+256) crosses five stripe units
		// (ost0, 1, 2, 3, then ost0 again), [300,+8) stays inside one.
		for _, w := range []struct{ blk, count, pieces int64 }{
			{32, 256, 5},
			{300, 8, 1},
		} {
			before := rpcCallsByOp(reg)
			if err := f.Write(stream, w.blk, w.count); err != nil {
				t.Fatal(err)
			}
			got := make(map[string]int64)
			for op, n := range rpcCallsByOp(reg) {
				if d := n - before[op]; d != 0 {
					got[op] = d
				}
			}
			want := map[string]int64{"obj-write": w.pieces * int64(rf), "extent-churn": 1}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("rf=%d write [%d,+%d): rpc calls %v, want %v", rf, w.blk, w.count, got, want)
			}
		}
	}
}

// TestChurnChargeFormula pins the MDS mapping-churn charge of every write:
// |after−before| + 1 + after/1024 units, where before and after are the
// file's TotalExtents around the write. Table I's MDS CPU column is this
// charge summed.
func TestChurnChargeFormula(t *testing.T) {
	vanilla := MiF(1).WithPolicy(PolicyVanilla)
	replicated := MiF(4)
	rc := replica.DefaultConfig()
	rc.RF = 2
	replicated.Replication = &rc
	for _, tc := range []struct {
		name string
		cfg  Config
		// minExtents is the extent count the file must reach, so the
		// indexing term after/1024 is exercised where it is nonzero.
		minExtents int
	}{
		{"mif", MiF(4), 0},
		{"vanilla-interleaved", vanilla, 1100},
		{"rf2", replicated, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.Create(fs.Root(), "churn.dat", 0)
			if err != nil {
				t.Fatal(err)
			}
			// Two streams write disjoint halves one block at a time,
			// interleaved in time: under vanilla placement every block
			// lands next to the other stream's, one extent each.
			const half = 600
			streams := [2]core.StreamID{{Client: 1, PID: 1}, {Client: 2, PID: 1}}
			before, err := fs.TotalExtents(f)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < half; i++ {
				for s, stream := range streams {
					ops := fs.MDS().Stats().ExtentOps
					if err := f.Write(stream, int64(s)*half+i, 1); err != nil {
						t.Fatal(err)
					}
					after, err := fs.TotalExtents(f)
					if err != nil {
						t.Fatal(err)
					}
					churn := after - before
					if churn < 0 {
						churn = -churn
					}
					want := int64(churn + 1 + after/1024)
					if got := fs.MDS().Stats().ExtentOps - ops; got != want {
						t.Fatalf("write %d of stream %d: charged %d units, want |%d-%d|+1+%d/1024 = %d",
							i, s, got, after, before, after, want)
					}
					before = after
				}
			}
			if before < tc.minExtents {
				t.Fatalf("file reached %d extents, want at least %d", before, tc.minExtents)
			}
		})
	}
}
