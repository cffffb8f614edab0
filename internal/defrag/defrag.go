// Package defrag implements the online defragmentation engine: the repair
// side of the MiF story. The paper's allocation policies *prevent*
// intra-file fragmentation at write time; its aging experiments (Fig. 9,
// §5) show what a churned volume looks like once prevention was not enough
// — and offer no way back. This package closes the loop with a background
// scan/plan/migrate pipeline that runs against live IO servers:
//
//   - the scanner walks each OST's objects, scores every extent map
//     (segment count, paper-style fragmentation degree, physical spread)
//     and produces a prioritized candidate list;
//   - the planner reserves a contiguous destination range through the
//     allocator's soft-reservation machinery — the same mechanism the MiF
//     sequential window uses — so foreground allocation never lands inside
//     a migration target;
//   - the mover migrates candidates slice by slice through the elevator
//     and disk model, rate-limited by a token bucket over simulated time
//     and yielding to queued foreground requests, with the crash-safe
//     commit ordering (write new, commit map, then free old) provided by
//     ost.CopyRange / ost.FreeMigrated.
//
// One Controller drives one IO server; an Engine aggregates the per-OST
// controllers of a mount (internal/pfs wires one up per file system).
package defrag

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"redbud/internal/alloc"
	"redbud/internal/ost"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// Config tunes the engine. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// MinExtents is the smallest segment count that makes an object a
	// candidate: an object in MinExtents-1 or fewer pieces is left alone.
	MinExtents int
	// MinScore is the scanner score threshold; candidates at or below it
	// are skipped. Zero selects any object whose layout can improve.
	MinScore float64
	// SliceBlocks is the largest number of blocks one mover step
	// migrates — the preemption granularity: foreground traffic waits at
	// most one slice.
	SliceBlocks int64
	// RateBlocksPerSec throttles the mover: a token bucket refilled at
	// this rate over simulated time. Zero disables the throttle.
	RateBlocksPerSec int64
	// BurstBlocks is the token bucket capacity; zero selects SliceBlocks.
	BurstBlocks int64
	// MinDestRun is the shortest destination run the planner accepts.
	// When free space is so fragmented that a reservation falls below
	// it, the candidate is abandoned rather than migrated badly.
	MinDestRun int64
	// MaxObjectsPerPass caps how many candidates one scan pass plans;
	// zero plans them all.
	MaxObjectsPerPass int
}

// DefaultConfig returns a conservative engine: migrate anything improvable
// in 256-block (1 MiB) slices, unthrottled.
func DefaultConfig() Config {
	return Config{
		MinExtents:  2,
		SliceBlocks: 256,
		MinDestRun:  16,
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MinExtents <= 0 {
		c.MinExtents = d.MinExtents
	}
	if c.SliceBlocks <= 0 {
		c.SliceBlocks = d.SliceBlocks
	}
	if c.BurstBlocks <= 0 {
		c.BurstBlocks = c.SliceBlocks
	}
	if c.MinDestRun <= 0 {
		c.MinDestRun = d.MinDestRun
	}
	return c
}

// Candidate is one scored scan result.
type Candidate struct {
	Report ost.FragReport
	Score  float64
}

// Score rates how much an object would gain from defragmentation: zero for
// a perfect layout, growing with the excess fragmentation degree (extents
// beyond the logical minimum) scaled by the physical spread ratio, so
// objects whose pieces scatter widely across the device sort first.
func Score(r ost.FragReport) float64 {
	if r.MappedBlocks == 0 || r.Extents <= r.IdealExtents {
		return 0
	}
	spread := float64(r.SpanBlocks) / float64(r.MappedBlocks)
	if spread < 1 {
		spread = 1
	}
	return (r.Degree - 1) * spread
}

// Stats are the per-controller counters.
type Stats struct {
	// Scans counts scan passes; Candidates the objects that scored above
	// threshold across them.
	Scans      int64
	Candidates int64
	// Planned counts candidates that got a destination reservation;
	// Skipped those abandoned (no contiguous space, or no improvement).
	Planned int64
	Skipped int64
	// ObjectsMigrated, BlocksMoved and Slices measure completed work.
	ObjectsMigrated int64
	BlocksMoved     int64
	Slices          int64
	// Preempted counts steps that yielded to queued foreground requests,
	// Throttled steps denied by the token bucket — the foreground-
	// interference observables.
	Preempted int64
	Throttled int64
	// ExtentsBefore and ExtentsAfter sum the segment counts of migrated
	// objects at plan and at completion time.
	ExtentsBefore int64
	ExtentsAfter  int64
	// MoveNs is the device service time consumed by migration I/O.
	MoveNs sim.Ns
}

// Add returns the field-wise sum, for aggregating controllers.
func (s Stats) Add(o Stats) Stats {
	s.Scans += o.Scans
	s.Candidates += o.Candidates
	s.Planned += o.Planned
	s.Skipped += o.Skipped
	s.ObjectsMigrated += o.ObjectsMigrated
	s.BlocksMoved += o.BlocksMoved
	s.Slices += o.Slices
	s.Preempted += o.Preempted
	s.Throttled += o.Throttled
	s.ExtentsBefore += o.ExtentsBefore
	s.ExtentsAfter += o.ExtentsAfter
	s.MoveNs += o.MoveNs
	return s
}

// plan is one object's migration in progress.
type plan struct {
	object ost.ObjectID
	// dst holds the reserved destination ranges; dstIdx/dstOff track how
	// much of them has been consumed.
	dst    []alloc.Range
	dstIdx int
	dstOff int64
	// cursor is the next logical block to migrate.
	cursor        int64
	extentsBefore int
}

// remaining returns the unconsumed destination capacity.
func (p *plan) remaining() int64 {
	var n int64
	for i := p.dstIdx; i < len(p.dst); i++ {
		n += p.dst[i].Count
	}
	return n - p.dstOff
}

// defragOwnerBase keeps defrag reservation owners disjoint from the
// policy-stream owners core.nextOwner hands out (which count up from 1).
const defragOwnerBase alloc.Owner = 1 << 40

// ownerSeq hands out process-unique defrag owners.
var ownerSeq atomic.Uint64

// Controller drives defragmentation of one IO server. All methods are safe
// for concurrent use with each other and with foreground traffic on the
// server.
type Controller struct {
	srv   *ost.Server
	cfg   Config
	owner alloc.Owner

	mu      sync.Mutex
	plans   []*plan
	tokens  float64
	lastNs  sim.Ns
	timeSrc func() sim.Ns
	stats   Stats
	tracer  *telemetry.Tracer

	sliceHist *telemetry.Histogram
	// events, when attached, records each foreground preemption as a
	// structured event; evDetail names the controller's server.
	events   *telemetry.EventLog
	evDetail string
}

// NewController builds a controller for one server. The token bucket's
// simulated-time source defaults to the server disk's busy time, so the
// mover earns budget as the system (foreground and defrag alike) makes the
// device work; tests may substitute a source with SetTimeSource.
func NewController(srv *ost.Server, cfg Config) *Controller {
	c := &Controller{
		srv:   srv,
		cfg:   cfg.withDefaults(),
		owner: defragOwnerBase + alloc.Owner(ownerSeq.Add(1)),
	}
	c.timeSrc = func() sim.Ns { return srv.Disk().Stats().BusyNs }
	return c
}

// SetTimeSource replaces the throttle's simulated-time source.
func (c *Controller) SetTimeSource(fn func() sim.Ns) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeSrc = fn
}

// SetTracer attaches (or with nil detaches) the span tracer; scan passes
// and migration slices are recorded as "defrag" spans.
func (c *Controller) SetTracer(t *telemetry.Tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = t
}

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Pending returns the number of plans not yet completed.
func (c *Controller) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.plans)
}

// Instrument publishes the controller's counters, the pending-plan gauge,
// and a per-slice device-time histogram into the registry.
func (c *Controller) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	c.mu.Lock()
	c.sliceHist = reg.Histogram("defrag_slice_ns", labels)
	c.events = reg.Events()
	c.evDetail = "ost " + labels["ost"]
	c.mu.Unlock()
	reg.CounterFunc("defrag_blocks_moved", labels, func() int64 { return c.Stats().BlocksMoved })
	reg.CounterFunc("defrag_objects_migrated", labels, func() int64 { return c.Stats().ObjectsMigrated })
	reg.CounterFunc("defrag_slices", labels, func() int64 { return c.Stats().Slices })
	reg.CounterFunc("defrag_preempted", labels, func() int64 { return c.Stats().Preempted })
	reg.CounterFunc("defrag_throttled", labels, func() int64 { return c.Stats().Throttled })
	reg.CounterFunc("defrag_extents_before", labels, func() int64 { return c.Stats().ExtentsBefore })
	reg.CounterFunc("defrag_extents_after", labels, func() int64 { return c.Stats().ExtentsAfter })
	reg.GaugeFunc("defrag_plans_pending", labels, func() int64 { return int64(c.Pending()) })
}

// Scan walks the server's objects and returns the prioritized candidate
// list: everything scoring above the threshold, best first (ties broken by
// object ID for determinism).
func (c *Controller) Scan() []Candidate {
	c.mu.Lock()
	cfg := c.cfg
	t := c.tracer
	c.mu.Unlock()
	var sp *telemetry.ActiveSpan
	if t != nil {
		sp = t.Start("defrag", "scan", 0)
	}
	var out []Candidate
	for _, r := range c.srv.FragReportAll() {
		if r.Extents < cfg.MinExtents {
			continue
		}
		sc := Score(r)
		if sc <= cfg.MinScore {
			continue
		}
		out = append(out, Candidate{Report: r, Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Report.Object < out[j].Report.Object
	})
	if cfg.MaxObjectsPerPass > 0 && len(out) > cfg.MaxObjectsPerPass {
		out = out[:cfg.MaxObjectsPerPass]
	}
	c.mu.Lock()
	c.stats.Scans++
	c.stats.Candidates += int64(len(out))
	c.mu.Unlock()
	if sp != nil {
		sp.AnnotateInt("candidates", int64(len(out)))
		sp.End()
	}
	return out
}

// ScanAndPlan runs one scan pass and builds migration plans for the
// candidates, reserving their destinations. It returns the number of plans
// added.
func (c *Controller) ScanAndPlan() int {
	added := 0
	for _, cand := range c.Scan() {
		if c.planOne(cand) {
			added++
		}
	}
	return added
}

// planOne reserves a destination for one candidate and queues its plan.
// Candidates that cannot improve (free space too fragmented to beat the
// current layout) are skipped and their reservations rolled back.
func (c *Controller) planOne(cand Candidate) bool {
	c.mu.Lock()
	cfg := c.cfg
	for _, p := range c.plans {
		if p.object == cand.Report.Object {
			c.mu.Unlock()
			return false // already planned
		}
	}
	c.mu.Unlock()

	need := cand.Report.MappedBlocks
	// Aim at the largest free run: that is where a contiguous home is.
	goal := c.srv.Allocator().FreeContig().LargestStart
	var dst []alloc.Range
	abort := func() bool {
		for _, r := range dst {
			c.srv.Allocator().Unreserve(c.owner, r)
		}
		c.mu.Lock()
		c.stats.Skipped++
		c.mu.Unlock()
		return false
	}
	for need > 0 {
		r, err := c.srv.Allocator().ReserveNear(c.owner, goal, need)
		if err != nil {
			return abort()
		}
		if r.Count < cfg.MinDestRun && r.Count < need {
			c.srv.Allocator().Unreserve(c.owner, r)
			return abort()
		}
		dst = append(dst, r)
		need -= r.Count
		goal = r.End()
	}
	// A migration into as many pieces as the object already has would
	// churn I/O for nothing.
	if len(dst) >= cand.Report.Extents {
		return abort()
	}
	c.mu.Lock()
	c.plans = append(c.plans, &plan{
		object:        cand.Report.Object,
		dst:           dst,
		extentsBefore: cand.Report.Extents,
	})
	c.stats.Planned++
	c.mu.Unlock()
	return true
}

// Step attempts one migration slice: the throttled, preemptible unit of
// background work. It returns the number of blocks moved — zero when there
// is nothing to do, foreground requests are queued (the mover yields), or
// the token bucket is empty. Errors from live-traffic races (the object
// was deleted mid-plan) abandon the plan silently; real I/O errors are
// returned.
func (c *Controller) Step() (int64, error) { return c.step(false) }

// step is Step with a force flag that bypasses the throttle and the
// foreground yield — the drain mode used by batch tools, which must
// terminate even when no foreground traffic advances simulated time.
func (c *Controller) step(force bool) (int64, error) {
	c.mu.Lock()
	if len(c.plans) == 0 {
		c.mu.Unlock()
		return 0, nil
	}
	p := c.plans[0]
	if !force {
		if c.srv.PendingRequests() > 0 {
			c.stats.Preempted++
			c.events.Emit(c.tracer.Now(), "defrag", "preempt", c.evDetail)
			c.mu.Unlock()
			return 0, nil
		}
		if !c.takeTokensLocked() {
			c.stats.Throttled++
			c.mu.Unlock()
			return 0, nil
		}
	}
	cfg := c.cfg
	t := c.tracer
	c.mu.Unlock()

	moved, cost, done, err := c.moveSlice(p, cfg, t)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.BlocksMoved += moved
	c.stats.MoveNs += cost
	if moved > 0 {
		c.stats.Slices++
		if c.sliceHist != nil {
			c.sliceHist.Observe(cost)
		}
	}
	// Refund unused budget: tokens were taken for a full slice.
	if !force && cfg.RateBlocksPerSec > 0 {
		c.tokens += float64(cfg.SliceBlocks - moved)
		if c.tokens > float64(cfg.BurstBlocks) {
			c.tokens = float64(cfg.BurstBlocks)
		}
	}
	if done || err != nil {
		c.finishPlanLocked(p, err == nil)
	}
	return moved, err
}

// takeTokensLocked refills the bucket from the simulated clock and takes
// one slice worth of tokens, reporting whether the step may run. A zero
// rate always passes. Callers hold c.mu.
func (c *Controller) takeTokensLocked() bool {
	if c.cfg.RateBlocksPerSec <= 0 {
		return true
	}
	now := c.timeSrc()
	if now > c.lastNs {
		c.tokens += sim.Seconds(now-c.lastNs) * float64(c.cfg.RateBlocksPerSec)
		c.lastNs = now
		if c.tokens > float64(c.cfg.BurstBlocks) {
			c.tokens = float64(c.cfg.BurstBlocks)
		}
	}
	if c.tokens < float64(c.cfg.SliceBlocks) {
		return false
	}
	c.tokens -= float64(c.cfg.SliceBlocks)
	return true
}

// moveSlice migrates up to one slice of plan p and reports the blocks
// moved, the device cost, and whether the plan is finished. A vanished
// object (deleted under live traffic) finishes the plan without error.
func (c *Controller) moveSlice(p *plan, cfg Config, t *telemetry.Tracer) (int64, sim.Ns, bool, error) {
	run, ok, err := c.srv.NextMappedExtent(p.object, p.cursor)
	if err != nil {
		return 0, 0, true, nil // object gone: abandon quietly
	}
	if !ok || p.remaining() == 0 {
		return 0, 0, true, nil // nothing left to move, or capacity spent
	}
	n := run.Count
	if n > cfg.SliceBlocks {
		n = cfg.SliceBlocks
	}
	if left := p.dst[p.dstIdx].Count - p.dstOff; n > left {
		n = left
	}
	dst := alloc.Range{Start: p.dst[p.dstIdx].Start + p.dstOff, Count: n}

	var sp *telemetry.ActiveSpan
	if t != nil {
		sp = t.Start("defrag", "slice", 0)
		sp.AnnotateInt("object", int64(p.object))
		sp.AnnotateInt("blocks", int64(n))
	}
	cost, old, err := c.srv.CopyRange(p.object, c.owner, run.Logical, n, dst)
	if err == nil {
		err = c.srv.FreeMigrated(p.object, old)
	}
	if sp != nil {
		sp.End()
	}
	if err != nil {
		return 0, cost, true, fmt.Errorf("defrag ost%d: %w", c.srv.ID(), err)
	}
	p.cursor = run.Logical + n
	p.dstOff += n
	if p.dstOff == p.dst[p.dstIdx].Count {
		p.dstIdx++
		p.dstOff = 0
	}
	done := p.dstIdx == len(p.dst)
	return n, cost, done, nil
}

// finishPlanLocked retires the head plan: leftover destination space is
// unreserved and the migration outcome recorded. Callers hold c.mu.
func (c *Controller) finishPlanLocked(p *plan, migrated bool) {
	if len(c.plans) > 0 && c.plans[0] == p {
		c.plans = c.plans[1:]
	}
	// Roll back whatever capacity the move did not consume (object
	// truncated mid-plan, or the plan aborted).
	if p.dstIdx < len(p.dst) {
		first := p.dst[p.dstIdx]
		first.Start += p.dstOff
		first.Count -= p.dstOff
		if first.Count > 0 {
			c.srv.Allocator().Unreserve(c.owner, first)
		}
		for _, r := range p.dst[p.dstIdx+1:] {
			c.srv.Allocator().Unreserve(c.owner, r)
		}
	}
	if migrated {
		c.stats.ObjectsMigrated++
		c.stats.ExtentsBefore += int64(p.extentsBefore)
		if r, err := c.srv.FragReport(p.object); err == nil {
			c.stats.ExtentsAfter += int64(r.Extents)
		}
	}
}

// Drain migrates every queued plan to completion, ignoring the throttle
// and the foreground yield. Batch tools (mifctl defrag, the benchmarks)
// use it; the live engine runs Step instead.
func (c *Controller) Drain() error {
	for c.Pending() > 0 {
		if _, err := c.step(true); err != nil {
			return err
		}
	}
	return nil
}

// Abort drops every queued plan, rolling back their reservations.
func (c *Controller) Abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.plans) > 0 {
		c.finishPlanLocked(c.plans[0], false)
	}
}

// Engine aggregates the per-OST controllers of one mount.
type Engine struct {
	ctrls []*Controller
}

// NewEngine builds one controller per server.
func NewEngine(cfg Config, srvs ...*ost.Server) *Engine {
	e := &Engine{}
	for _, s := range srvs {
		e.ctrls = append(e.ctrls, NewController(s, cfg))
	}
	return e
}

// Controllers returns the per-OST controllers, indexed like the servers.
func (e *Engine) Controllers() []*Controller { return e.ctrls }

// SetTracer attaches the span tracer to every controller.
func (e *Engine) SetTracer(t *telemetry.Tracer) {
	for _, c := range e.ctrls {
		c.SetTracer(t)
	}
}

// Instrument publishes every controller into the registry, labeled by OST.
func (e *Engine) Instrument(reg *telemetry.Registry, labels telemetry.Labels) {
	for i, c := range e.ctrls {
		c.Instrument(reg, labels.With("ost", fmt.Sprint(i)))
	}
}

// ScanAndPlan runs one scan pass on every OST, returning total plans added.
func (e *Engine) ScanAndPlan() int {
	total := 0
	for _, c := range e.ctrls {
		total += c.ScanAndPlan()
	}
	return total
}

// Step runs one throttled slice per OST, returning total blocks moved.
func (e *Engine) Step() (int64, error) {
	var moved int64
	for _, c := range e.ctrls {
		n, err := c.Step()
		if err != nil {
			return moved, err
		}
		moved += n
	}
	return moved, nil
}

// Pending returns the number of unfinished plans across all OSTs.
func (e *Engine) Pending() int {
	n := 0
	for _, c := range e.ctrls {
		n += c.Pending()
	}
	return n
}

// Drain completes every queued plan on every OST.
func (e *Engine) Drain() error {
	for _, c := range e.ctrls {
		if err := c.Drain(); err != nil {
			return err
		}
	}
	return nil
}

// Run is the batch entry point: one scan/plan pass followed by a full
// drain, returning the aggregated statistics of the engine so far.
func (e *Engine) Run() (Stats, error) {
	e.ScanAndPlan()
	if err := e.Drain(); err != nil {
		return e.Stats(), err
	}
	return e.Stats(), nil
}

// Stats returns the aggregated controller counters.
func (e *Engine) Stats() Stats {
	var total Stats
	for _, c := range e.ctrls {
		total = total.Add(c.Stats())
	}
	return total
}
