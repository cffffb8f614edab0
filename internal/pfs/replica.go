package pfs

// This file is the replicated data path of the mount: every branch the
// unreplicated code takes through one OST per stripe piece, taken here
// through a component's replica set instead. Writes fan out to all live
// copies (all-replicas-ack: every live member must acknowledge, members on
// down servers are skipped and marked stale), reads steer to the
// least-loaded clean copy and fail over on transport errors, and the
// repair loop executes the plans the replica manager produces. The manager
// itself issues no RPCs — the lock order stays fs.mu, then manager.mu.

import (
	"errors"
	"fmt"

	"redbud/internal/core"
	"redbud/internal/crashsim"
	"redbud/internal/extent"
	"redbud/internal/ost"
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

// repCreateLocked creates a replicated file: the MDS places one replica set
// per stripe component from the client's observations, then the component
// objects are created on every placed server. A server that fails its
// create is marked down and its copy starts stale (the repair engine will
// build it); the create succeeds as long as each component has at least one
// live copy. Callers hold fs.mu.
func (fs *FS) repCreateLocked(f *file) error {
	comps := len(fs.osts)
	sets, err := fs.mdsc.PlaceReplicas(f.ino, comps, fs.rep.RF(), fs.repPlaceInputsLocked())
	if err != nil {
		return err
	}
	perOST := fs.componentSizeHint(f.sizeHint)
	for c, set := range sets {
		id := ost.ObjectID(fs.nextObj + 1)
		fs.nextObj++
		acks := 0
		for _, r := range set {
			if fs.rep.Down(r) {
				continue
			}
			if err := fs.ostc[r].CreateObject(id, perOST); err != nil {
				if repSuspect(err) {
					fs.rep.MarkDown(r)
					continue
				}
				return err
			}
			acks++
		}
		if acks == 0 {
			return fmt.Errorf("pfs: create: no live replica for component %d", c)
		}
		f.objects = append(f.objects, id)
		fs.rep.Add(f.ino, c, id, set)
	}
	if fs.cfg.Policy == PolicyStatic && f.sizeHint > 0 {
		for c := range sets {
			n := fs.componentBlocks(f.sizeHint, c)
			if n == 0 {
				continue
			}
			members, obj, _ := fs.rep.Members(f.ino, c)
			for _, m := range members {
				if m.Down || m.Stale {
					continue
				}
				if err := fs.ostc[m.OST].Fallocate(obj, core.StreamID{}, n); err != nil {
					if repSuspect(err) {
						fs.rep.MarkDown(m.OST)
						fs.rep.MarkStale(f.ino, c, m.OST)
						continue
					}
					return err
				}
			}
		}
	}
	return nil
}

// repWriteLocked fans each stripe piece out to every live replica of its
// component. A replica whose write fails at the transport layer is marked
// down and stale rather than failing the client write; the write errors
// only when a piece gets no acknowledgement at all. Callers hold fs.mu.
func (fs *FS) repWriteLocked(f *file, stream core.StreamID, blk, count int64) error {
	before, err := fs.repTotalExtentsLocked(f)
	if err != nil {
		return err
	}
	for _, p := range fs.stripeRange(blk, count) {
		obj, targets, err := fs.rep.WriteTargets(f.ino, p.ostIdx)
		if err != nil {
			return err
		}
		acks := 0
		for _, r := range targets {
			if err := fs.ostc[r].Write(obj, stream, p.logical, p.count); err != nil {
				if repSuspect(err) {
					fs.rep.MarkDown(r)
					fs.rep.MarkStale(f.ino, p.ostIdx, r)
					continue
				}
				return err
			}
			acks++
		}
		if acks == 0 {
			return fmt.Errorf("pfs: write [%d,+%d): no live replica for component %d",
				blk, count, p.ostIdx)
		}
	}
	after, err := fs.repTotalExtentsLocked(f)
	if err != nil {
		return err
	}
	// Same mapping-churn charge as the unreplicated path: units inserted or
	// merged plus the indexing term.
	churn := after - before
	if churn < 0 {
		churn = -churn
	}
	if err := fs.mdsc.NoteExtentChurn(churn + 1 + after/1024); err != nil {
		return err
	}
	fs.extentSeries.Set(fs.tracer.Now(), int64(after))
	return nil
}

// repReadLocked serves each stripe piece from one steered replica: the
// least-loaded clean live copy, retried on the next-best copy when the pick
// fails at the transport layer. Callers hold fs.mu.
func (fs *FS) repReadLocked(f *file, blk, count int64) error {
	load := func(i int) sim.Ns { return fs.osts[i].Disk().Stats().BusyNs }
	for _, p := range fs.stripeRange(blk, count) {
		var tried []int
		for {
			r, obj, ok := fs.rep.SteerRead(f.ino, p.ostIdx, tried, load)
			if !ok {
				return fmt.Errorf("pfs: read [%d,+%d): no readable replica for component %d",
					blk, count, p.ostIdx)
			}
			err := fs.ostc[r].Read(obj, p.logical, p.count)
			if err == nil {
				break
			}
			if !repSuspect(err) {
				return err
			}
			fs.rep.MarkDown(r)
			fs.rep.NoteFailover(f.ino, p.ostIdx, r)
			tried = append(tried, r)
		}
	}
	return nil
}

// repTotalExtentsLocked sums the file's segment counts over one clean
// replica per component, failing over like a read when a pick turns out to
// be unreachable. Callers hold fs.mu.
func (fs *FS) repTotalExtentsLocked(f *file) (int, error) {
	total := 0
	for c := range f.objects {
		for {
			r, obj, ok := fs.rep.ReadReplica(f.ino, c)
			if !ok {
				return 0, fmt.Errorf("pfs: no readable replica for component %d", c)
			}
			n, err := fs.ostc[r].ExtentCount(obj)
			if err == nil {
				total += n
				break
			}
			if !repSuspect(err) {
				return 0, err
			}
			fs.rep.MarkDown(r)
			fs.rep.NoteFailover(f.ino, c, r)
		}
	}
	return total, nil
}

// repTruncateLocked truncates every live copy of every component; members
// on down servers miss the mutation and go stale. An application error is
// tolerated — a stale member created while its server was down never got
// the object, and stays stale for the repair engine. Callers hold fs.mu.
func (fs *FS) repTruncateLocked(f *file, sizeBlocks int64) error {
	for c := range f.objects {
		members, obj, ok := fs.rep.Members(f.ino, c)
		if !ok {
			continue
		}
		for _, m := range members {
			if m.Down {
				fs.rep.MarkStale(f.ino, c, m.OST)
				continue
			}
			if err := fs.ostc[m.OST].Truncate(obj, fs.componentBlocks(sizeBlocks, c)); err != nil {
				if repSuspect(err) {
					fs.rep.MarkDown(m.OST)
					fs.rep.MarkStale(f.ino, c, m.OST)
				}
				continue
			}
		}
	}
	return nil
}

// repFsyncLocked forces buffered writes on every live copy. Skipping a down
// server is harmless — its copy is already stale for the writes being
// forced — and application errors (no object on a stale member) likewise.
// Callers hold fs.mu.
func (fs *FS) repFsyncLocked(f *file) error {
	for c := range f.objects {
		members, obj, ok := fs.rep.Members(f.ino, c)
		if !ok {
			continue
		}
		for _, m := range members {
			if m.Down {
				continue
			}
			if err := fs.ostc[m.OST].Fsync(obj); err != nil && repSuspect(err) {
				fs.rep.MarkDown(m.OST)
			}
		}
	}
	return nil
}

// repCloseLocked releases reservations on every live copy and records the
// layout summary at the MDS from one clean replica per component, like the
// unreplicated close. Callers hold fs.mu.
func (fs *FS) repCloseLocked(f *file) error {
	var layout []extent.Extent
	for c := range f.objects {
		members, obj, ok := fs.rep.Members(f.ino, c)
		if !ok {
			continue
		}
		for _, m := range members {
			if m.Down {
				continue
			}
			if err := fs.ostc[m.OST].CloseObject(obj); err != nil && repSuspect(err) {
				fs.rep.MarkDown(m.OST)
			}
		}
		for {
			r, robj, ok := fs.rep.ReadReplica(f.ino, c)
			if !ok {
				break // fully degraded component: no summary contribution
			}
			exts, err := fs.ostc[r].Extents(robj)
			if err != nil {
				if repSuspect(err) {
					fs.rep.MarkDown(r)
					fs.rep.NoteFailover(f.ino, c, r)
					continue
				}
				return err
			}
			if len(exts) > 0 && len(layout) < extent.InlineSummary {
				layout = append(layout, extent.Extent{
					Logical:  int64(c),
					Physical: exts[0].Physical,
					Count:    exts[0].Count,
				})
			}
			break
		}
	}
	all := make([]extent.Extent, 0, len(layout))
	all = append(all, layout...)
	return fs.mdsc.SetLayout(f.ino, all)
}

// repDeleteLocked removes every reachable copy of the file's objects.
// Copies on down servers are orphaned (the revived server's object is
// garbage the simulator tolerates); application errors mean the copy never
// existed. Callers hold fs.mu.
func (fs *FS) repDeleteLocked(f *file) error {
	for c := range f.objects {
		members, obj, ok := fs.rep.Members(f.ino, c)
		if !ok {
			continue
		}
		for _, m := range members {
			if m.Down {
				continue
			}
			if err := fs.ostc[m.OST].Delete(obj); err != nil && repSuspect(err) {
				fs.rep.MarkDown(m.OST)
			}
		}
	}
	fs.rep.Remove(f.ino)
	return nil
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
	_, _ = fs.ostc[jd.Src].Flush()
	_, _ = fs.ostc[jd.Dst].Flush()
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
