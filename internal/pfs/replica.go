package pfs

// This file is the copy model behind the mount's data path. Every stripe
// component has one or more copies, and each data operation in pfs.go is a
// single loop over them: writes fan out to all live copies
// (all-replicas-ack: every live copy must acknowledge; copies on down
// servers are skipped and marked stale), reads go to one picked copy and
// fail over on transport errors, and maintenance operations visit every
// live copy. An unreplicated mount is the one-copy case: component c's only
// copy is OST c, it is never down or stale, and every RPC error is the
// operation's. On a replicated mount the replica manager supplies the
// copies, their down/stale state and the read steering, and the repair loop
// here executes the plans it produces. The manager itself issues no RPCs —
// the lock order stays fs.mu, then manager.mu.

import (
	"errors"
	"fmt"

	"redbud/internal/core"
	"redbud/internal/crashsim"
	"redbud/internal/inode"
	"redbud/internal/replica"
	"redbud/internal/rpc"
	"redbud/internal/sim"
)

// repairStream is the write-stream identity of re-replication copies, kept
// distinct from every client stream so the placement policies on the
// destination treat the rebuild as its own sequential writer.
var repairStream = core.StreamID{Client: 0xFFFFFFFF, PID: 0xFFFFFFFF}

// repSuspect reports whether an error is transport-level evidence that the
// endpoint is unreachable (an exhausted retry budget, a timeout, or an
// unavailability), as opposed to an application error the server itself
// computed and answered with.
func repSuspect(err error) bool {
	if errors.Is(err, rpc.ErrRetriesExhausted) {
		return true
	}
	var re *rpc.Error
	return errors.As(err, &re) && re.Kind != rpc.KindBadRequest
}

// repPlaceInputsLocked gathers the per-OST capacity/load observations the
// spread policy scores: the allocator's free-space gauge, the device's
// accumulated busy time, and the client's current suspicion of the server.
// Callers hold fs.mu.
func (fs *FS) repPlaceInputsLocked() []replica.PlaceInput {
	in := make([]replica.PlaceInput, len(fs.osts))
	for i, srv := range fs.osts {
		in[i] = replica.PlaceInput{
			OST:        i,
			FreeBlocks: srv.Allocator().FreeBlocks(),
			BusyNs:     srv.Disk().Stats().BusyNs,
			Down:       fs.rep.Down(i),
		}
	}
	return in
}

// copiesLocked returns the copies of component c with their down/stale
// state. An unreplicated mount's only copy is OST c, never down or stale.
// Callers hold fs.mu.
func (fs *FS) copiesLocked(ino inode.Ino, c int) []replica.MemberState {
	if fs.rep == nil {
		return fs.solo[c : c+1]
	}
	members, _, _ := fs.rep.Members(ino, c)
	return members
}

// writeTargetsLocked returns the copies a write to component c fans out
// to: every live copy, stale ones included (copies on down servers are
// skipped and go stale). Callers hold fs.mu.
func (fs *FS) writeTargetsLocked(ino inode.Ino, c int) ([]int, error) {
	if fs.rep == nil {
		return fs.soloSets[c], nil
	}
	_, targets, err := fs.rep.WriteTargets(ino, c)
	return targets, err
}

// readPickLocked returns the copy a read of component c goes to: on a
// replicated mount the least-loaded clean live copy not yet tried. ok is
// false when no readable copy remains. Callers hold fs.mu.
func (fs *FS) readPickLocked(ino inode.Ino, c int, tried []int) (int, bool) {
	if fs.rep == nil {
		return c, true
	}
	load := func(i int) sim.Ns { return fs.osts[i].Disk().Stats().BusyNs }
	r, _, ok := fs.rep.SteerRead(ino, c, tried, load)
	return r, ok
}

// cleanCopyLocked returns component c's first clean live copy — the pick
// for bookkeeping that must not perturb read steering (extent counts, the
// close-time layout summary). Callers hold fs.mu.
func (fs *FS) cleanCopyLocked(ino inode.Ino, c int) (int, bool) {
	if fs.rep == nil {
		return c, true
	}
	r, _, ok := fs.rep.ReadReplica(ino, c)
	return r, ok
}

// downLocked reports whether the client suspects OST i is unreachable.
// Callers hold fs.mu.
func (fs *FS) downLocked(i int) bool {
	return fs.rep != nil && fs.rep.Down(i)
}

// skipCopyLocked reports whether an operation may carry on past a failed
// RPC to copy r. On an unreplicated mount it never may: the one copy's
// error is the operation's. On a replicated mount a transport failure may
// be skipped, and marks the server down. Callers hold fs.mu.
func (fs *FS) skipCopyLocked(err error, r int) bool {
	if fs.rep == nil || !repSuspect(err) {
		return false
	}
	fs.rep.MarkDown(r)
	return true
}

// maintainErrLocked applies the error rule of truncate, fsync, close and
// delete to the result of an RPC to copy r. A transport failure is skipped
// as in skipCopyLocked (lost reports it). An application error is returned
// on an unreplicated mount but tolerated on a replicated one, where a
// member created while its server was unreachable holds no object (see
// remarkStaleLocked). Callers hold fs.mu.
func (fs *FS) maintainErrLocked(err error, r int) (lost bool, _ error) {
	if err == nil {
		return false, nil
	}
	if fs.skipCopyLocked(err, r) {
		return true, nil
	}
	if fs.rep == nil {
		return false, err
	}
	return false, nil
}

// CrashOST blackholes IO server i at the transport: every RPC to it is
// dropped until ReviveOST, so clients discover the crash through their own
// timeouts. Requires the mount to run with a fault transport (Config.RPC.
// Fault).
func (fs *FS) CrashOST(i int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if i < 0 || i >= len(fs.osts) {
		return fmt.Errorf("pfs: no OST %d", i)
	}
	ft := fs.conn.Fault()
	if ft == nil {
		return fmt.Errorf("pfs: mount has no fault transport (set Config.RPC.Fault)")
	}
	ft.Crash(ostAddr(i))
	return nil
}

// ReviveOST restores a crashed IO server: the transport resumes delivery,
// the server reboots (volatile buffers and reservations lost, durable state
// kept), and the replica manager clears its suspicion — stale copies stay
// stale until repaired.
func (fs *FS) ReviveOST(i int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if i < 0 || i >= len(fs.osts) {
		return fmt.Errorf("pfs: no OST %d", i)
	}
	ft := fs.conn.Fault()
	if ft == nil {
		return fmt.Errorf("pfs: mount has no fault transport (set Config.RPC.Fault)")
	}
	ft.Revive(ostAddr(i))
	fs.osts[i].Restart()
	if fs.rep != nil {
		fs.rep.MarkUp(i)
	}
	return nil
}

// repPrepareDstLocked readies the repair destination: the object is created
// fresh, or truncated to empty when it already exists (a stale copy's
// content is untrustworthy — the copy restarts from nothing). Callers hold
// fs.mu.
func (fs *FS) repPrepareDstLocked(jd replica.JobDesc) error {
	if err := fs.ostc[jd.Dst].CreateObject(jd.Obj, 0); err != nil {
		if repSuspect(err) {
			return err
		}
		// Already exists: reset it.
		return fs.ostc[jd.Dst].Truncate(jd.Obj, 0)
	}
	return nil
}

// RepairStep advances the background re-replication engine by one unit of
// work: arming the next planned job, copying one paced slice, or committing
// a finished job (pushing the changed replica set to the MDS). force
// bypasses the throttle and foreground preemption — drain mode. It returns
// whether any progress was made; interleave non-force calls with foreground
// traffic, as defrag does.
func (fs *FS) RepairStep(force bool) (bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.rep == nil {
		return false, nil
	}
	sp := fs.startOpLocked("repair-step")
	defer fs.endOpLocked(sp)
	if !fs.rep.JobActive() {
		jd, ok := fs.rep.PlanRepair(fs.repPlaceInputsLocked())
		if !ok {
			return false, nil
		}
		runs, err := fs.ostc[jd.Src].WrittenRuns(jd.Obj)
		if err != nil {
			if repSuspect(err) {
				fs.rep.MarkDown(jd.Src)
				return true, nil // progress: learned the source is dead
			}
			return false, err
		}
		if err := fs.repPrepareDstLocked(jd); err != nil {
			if repSuspect(err) {
				fs.rep.MarkDown(jd.Dst)
				return true, nil
			}
			return false, err
		}
		// Crash point: the destination copy was just reset to empty for the
		// rebuild — after a recovery it must be rediscovered as stale (its
		// written coverage is behind) and repaired from scratch.
		if _, ok := fs.cfg.Crash.Hit(crashsim.PtRepairDstReset, 0); ok {
			fs.cfg.Crash.Kill()
		}
		fs.rep.StartJob(jd, runs)
		return true, nil
	}
	jd, _ := fs.rep.JobDescActive()
	if fs.rep.JobRemaining() == 0 {
		return true, fs.repFinishLocked()
	}
	pending := fs.osts[jd.Src].PendingRequests() + fs.osts[jd.Dst].PendingRequests()
	slice, ok := fs.rep.NextSlice(force, pending)
	if !ok {
		return false, nil // preempted or throttled: yield to foreground
	}
	if err := fs.ostc[jd.Src].Read(jd.Obj, slice.Start, slice.Count); err != nil {
		fs.rep.AbortJob()
		if repSuspect(err) {
			fs.rep.MarkDown(jd.Src)
			return true, nil
		}
		return false, err
	}
	if err := fs.ostc[jd.Dst].Write(jd.Obj, repairStream, slice.Start, slice.Count); err != nil {
		fs.rep.AbortJob()
		if repSuspect(err) {
			fs.rep.MarkDown(jd.Dst)
			return true, nil
		}
		return false, err
	}
	// Crash point: a repair slice was accepted by the destination but sits
	// in its volatile queue — the half-built copy must come back stale.
	if _, ok := fs.cfg.Crash.Hit(crashsim.PtRepairCopyMedia, slice.Count); ok {
		fs.cfg.Crash.Kill()
	}
	// Drain both endpoints so the copy's own queued device work never
	// preempts its next slice.
	_ = fs.ostc[jd.Src].Flush()
	_ = fs.ostc[jd.Dst].Flush()
	fs.rep.AdvanceJob(slice.Count)
	if fs.rep.JobRemaining() == 0 {
		return true, fs.repFinishLocked()
	}
	return true, nil
}

// repFinishLocked commits the in-flight job and publishes a changed replica
// set to the MDS layout table. Callers hold fs.mu.
func (fs *FS) repFinishLocked() error {
	// Crash point: the copy is byte-complete but the job was never
	// committed — the replica table still calls the destination stale, and
	// the layout publication never reached the MDS. Recovery re-runs the
	// (idempotent) repair.
	if _, ok := fs.cfg.Crash.Hit(crashsim.PtRepairCommitLayout, 0); ok {
		fs.cfg.Crash.Kill()
	}
	done := fs.rep.FinishJob()
	if done.SetChanged {
		return fs.mdsc.SetReplicaLayout(done.Key.Ino, done.Key.Comp, done.Replicas)
	}
	return nil
}

// RepairDrain force-steps the repair engine until no further progress is
// possible — every repairable component is back at full strength (or no
// live capacity remains to repair onto). Batch tools and the failover
// benchmark's final phase use it.
func (fs *FS) RepairDrain() error {
	for {
		worked, err := fs.RepairStep(true)
		if err != nil {
			return err
		}
		if !worked {
			return nil
		}
	}
}
