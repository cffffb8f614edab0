package main

import (
	"fmt"
	"runtime"

	"redbud/internal/cache"
	"redbud/internal/core"
	"redbud/internal/inode"
	"redbud/internal/mdfs"
	"redbud/internal/mds"
	"redbud/internal/pfs"
	"redbud/internal/sim"
	"redbud/internal/telemetry"
)

// instance is one freshly set-up system under test for one round.
type instance interface {
	// run issues the workload's measured client calls through c.
	run(c *caller) error
	// sim returns the simulated outputs of the round, in a fixed order.
	// It is called after run and before check.
	sim() ([]simMetric, error)
	// check runs the correctness checks after run. It returns the number
	// of checks made and one message per failed check.
	check(t *checkTimes) (int, []string)
	// close releases the system's background resources.
	close()
}

// workload is one named benchmark shape.
type workload struct {
	name string
	why  string
	// idle names the layers the workload keeps out of the host profile:
	// the traced run reports their summed self share, which should stay
	// below idleShare.
	idle []string
	// setup builds a fresh system from the seed. reg is nil on untraced
	// rounds. Calls made while setting up go through c, which counts them
	// but does not time them.
	setup func(seed uint64, reg *telemetry.Registry, c *caller) (instance, error)
}

// idleShare bounds the summed self share of a workload's idle layers.
const idleShare = 0.05

// checkTimes collects the host time of the checking calls that the
// per-layer report names.
type checkTimes struct {
	fsckMs  []float64
	checkMs []float64
}

// simMetric is one simulated output: a pure function of the workload and
// its seed, identical on every run of the same seed.
type simMetric struct {
	name  string
	unit  string
	value float64
}

// sizes scales every workload. The benchmark runs full; the tests run a
// reduced copy.
type sizes struct {
	stream   streamSize
	meta     metaSize
	postmark postmarkSize
}

// fullSizes is the benchmark's scale.
var fullSizes = sizes{
	stream: streamSize{Clients: 16, Threads: 4, FileBlocks: 262144, WriteBlocks: 4,
		Segments: 1024, ReadBlocks: 16},
	meta: metaSize{Clients: 2, FilesPerDir: 5000},
	postmark: postmarkSize{Clients: 10, FilesPerClient: 100, TransactionsPerClient: 1500,
		MinBlocks: 1, MaxBlocks: 8},
}

// workloads returns the benchmark's workloads at the given scale.
func workloads(s sizes) []workload {
	return []workload{
		{
			name: "shared-stream",
			why:  "Fig. 6(a) shape: 64 interleaved writer streams then 1024 jittered segment readers on one striped MiF file; data plane only",
			idle: []string{"mdfs", "journal"},
			setup: func(seed uint64, reg *telemetry.Registry, _ *caller) (instance, error) {
				return newSharedStream(s.stream, seed, reg)
			},
		},
		{
			name: "metarates",
			why:  "Fig. 8 shape on the normal layout with synchronous writes, called on the MDS directly; metadata plane only",
			idle: []string{"sim", "rpc", "ost", "pfs"},
			setup: func(seed uint64, reg *telemetry.Registry, _ *caller) (instance, error) {
				return newMetarates(s.meta, seed, reg)
			},
		},
		{
			name: "postmark-cached",
			why:  "Fig. 10 PostMark mix on a full cached MiF mount: metadata through the client, small writes and cached re-reads, allocation-bound",
			setup: func(seed uint64, reg *telemetry.Registry, c *caller) (instance, error) {
				return newPostmark(s.postmark, seed, reg, c)
			},
		},
	}
}

// closeMount stops a mount's background workers when the mount has a
// Close method, without depending on that method existing.
func closeMount(fs *pfs.FS) {
	if c, ok := any(fs).(interface{ Close() }); ok {
		c.Close()
	}
}

// checkOSTs runs CheckConsistency on every IO server of the mount.
func checkOSTs(fs *pfs.FS, t *checkTimes) (int, []string) {
	var bad []string
	var total int64
	for i := 0; i < fs.OSTs(); i++ {
		start := now()
		rep := fs.OST(i).CheckConsistency()
		total += since(start)
		if !rep.Clean() {
			bad = append(bad, fmt.Sprintf("ost%d consistency: %v", i, rep.Problems))
		}
	}
	t.checkMs = append(t.checkMs, float64(total)/1e6)
	return fs.OSTs(), bad
}

// fsckClean runs the metadata fsck at host width and reports findings.
func fsckClean(fs *mdfs.FS, t *checkTimes) (*mdfs.FsckReport, []string) {
	start := now()
	rep := fs.FsckWith(mdfs.FsckOptions{Workers: runtime.GOMAXPROCS(0)})
	t.fsckMs = append(t.fsckMs, float64(since(start))/1e6)
	if !rep.Clean() {
		return rep, []string{fmt.Sprintf("mdfs fsck: %v", rep.Problems)}
	}
	return rep, nil
}

// ---- shared-stream ----------------------------------------------------

// streamSize sizes the shared-stream workload.
type streamSize struct {
	// Clients × Threads writer streams share one file.
	Clients, Threads int
	// FileBlocks is the shared file's size in 4 KiB blocks.
	FileBlocks int64
	// WriteBlocks is the write request size.
	WriteBlocks int64
	// Segments is the number of concurrent segment readers.
	Segments int
	// ReadBlocks is the read request size.
	ReadBlocks int64
}

type sharedStream struct {
	size streamSize
	seed uint64
	fs   *pfs.FS
	file *pfs.File
	ids  []core.StreamID

	writeNs, readNs sim.Ns
}

func newSharedStream(s streamSize, seed uint64, reg *telemetry.Registry) (*sharedStream, error) {
	cfg := pfs.MiF(5)
	cfg.Metrics = reg
	fs, err := pfs.New(cfg)
	if err != nil {
		return nil, err
	}
	w := &sharedStream{size: s, seed: seed, fs: fs}
	for i := 0; i < s.Clients*s.Threads; i++ {
		w.ids = append(w.ids, core.StreamID{Client: uint32(i / s.Threads), PID: uint32(i % s.Threads)})
	}
	return w, nil
}

// ostTimelines returns each IO server's device timeline: the longer of its
// disk and its FibreChannel link busy time (they pipeline).
func (w *sharedStream) ostTimelines() []sim.Ns {
	out := make([]sim.Ns, w.fs.OSTs())
	for i := range out {
		out[i] = max(w.fs.OST(i).Disk().Stats().BusyNs, w.fs.Fabric().Link(i).Stats().BusyNs)
	}
	return out
}

// phaseElapsed is the simulated time of a data phase run in parallel over
// the stripe: the largest per-server timeline advance.
func phaseElapsed(before, after []sim.Ns) sim.Ns {
	var m sim.Ns
	for i := range before {
		m = max(m, after[i]-before[i])
	}
	return m
}

func (w *sharedStream) run(c *caller) error {
	fs, s := w.fs, w.size
	streams := int64(len(w.ids))
	region := s.FileBlocks / streams
	t := c.begin()
	f, err := fs.Create(fs.Root(), "shared.odb", s.FileBlocks)
	if err := c.end(opPFSCreate, t, err); err != nil {
		return err
	}
	w.file = f

	// Write phase: every stream extends its private region, requests
	// arriving round-robin across streams.
	for off := int64(0); off < region; off += s.WriteBlocks {
		n := min(s.WriteBlocks, region-off)
		for i, id := range w.ids {
			t := c.begin()
			err := f.Write(id, int64(i)*region+off, n)
			if err := c.end(opPFSWrite, t, err); err != nil {
				return err
			}
		}
	}
	t = c.begin()
	fs.Flush()
	_ = c.end(opPFSFlush, t, nil)
	afterWrite := w.ostTimelines()
	w.writeNs = phaseElapsed(make([]sim.Ns, len(afterWrite)), afterWrite)

	// Read phase: segment readers run concurrently, so their sequential
	// requests arrive in a seeded jittered order.
	segBlocks := s.FileBlocks / int64(s.Segments)
	perSeg := (segBlocks + s.ReadBlocks - 1) / s.ReadBlocks
	err = jittered(newRNG(w.seed), s.Segments, perSeg, func(seg int, idx int64) error {
		off := idx * s.ReadBlocks
		n := min(s.ReadBlocks, segBlocks-off)
		t := c.begin()
		err := f.Read(int64(seg)*segBlocks+off, n)
		return c.end(opPFSRead, t, err)
	})
	if err != nil {
		return err
	}
	t = c.begin()
	fs.Flush()
	_ = c.end(opPFSFlush, t, nil)
	w.readNs = phaseElapsed(afterWrite, w.ostTimelines())

	t = c.begin()
	err = f.Close()
	return c.end(opPFSClose, t, err)
}

func (w *sharedStream) sim() ([]simMetric, error) {
	extents, err := w.fs.TotalExtents(w.file)
	if err != nil {
		return nil, err
	}
	bytes := w.size.FileBlocks * w.fs.Config().OST.Disk.BlockSize
	return []simMetric{
		{"sim_s", "sim_s", sim.Seconds(w.writeNs + w.readNs)},
		{"pfs.sim_write_MBps", "sim_MB/s", sim.MBps(bytes, w.writeNs)},
		{"pfs.sim_read_MBps", "sim_MB/s", sim.MBps(bytes, w.readNs)},
		{"ost.extents", "count", float64(extents)},
	}, nil
}

func (w *sharedStream) check(t *checkTimes) (int, []string) {
	_, bad := fsckClean(w.fs.MDS().FS(), t)
	n, osts := checkOSTs(w.fs, t)
	return n + 1, append(bad, osts...)
}

func (w *sharedStream) close() { closeMount(w.fs) }

// ---- metarates --------------------------------------------------------

// metaSize sizes the metarates workload. Scale it by Clients only: the
// per-directory size is the paper's.
type metaSize struct {
	Clients     int
	FilesPerDir int
}

type metarates struct {
	size  metaSize
	seed  uint64
	srv   *mds.Server
	names []string
	dirs  []inode.Ino

	// phases holds each phase's simulated MDS disk time.
	phases [4]sim.Ns
	// readdirBad holds the failed readdirplus record-count checks.
	readdirBad []string
}

var metaPhaseNames = [4]string{"create", "utime", "readdir", "delete"}

func newMetarates(s metaSize, seed uint64, reg *telemetry.Registry) (*metarates, error) {
	cfg := mds.DefaultConfig(mdfs.LayoutNormal)
	cfg.FS.SyncWrites = true
	srv, err := mds.New(cfg)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		srv.Instrument(reg, telemetry.Labels{"layer": "mds"})
	}
	w := &metarates{size: s, seed: seed, srv: srv, names: make([]string, s.FilesPerDir)}
	for i := range w.names {
		w.names[i] = fmt.Sprintf("f%06d", i)
	}
	return w, nil
}

// phase runs one measured phase from cold caches and records its
// simulated MDS disk time: sync, drop caches, run, sync.
func (w *metarates) phase(c *caller, i int, body func() error) error {
	fs := w.srv.FS()
	t := c.begin()
	err := fs.Sync()
	if err := c.end(opMDFSSync, t, err); err != nil {
		return err
	}
	fs.Store().DropCaches()
	before := fs.Store().Disk().Stats().BusyNs
	if err := body(); err != nil {
		return err
	}
	t = c.begin()
	err = fs.Sync()
	if err := c.end(opMDFSSync, t, err); err != nil {
		return err
	}
	w.phases[i] = fs.Store().Disk().Stats().BusyNs - before
	return nil
}

func (w *metarates) run(c *caller) error {
	srv, s := w.srv, w.size
	w.dirs = make([]inode.Ino, s.Clients)
	for i := range w.dirs {
		t := c.begin()
		d, err := srv.Mkdir(srv.Root(), fmt.Sprintf("client%02d", i))
		if err := c.end(opMDSMkdir, t, err); err != nil {
			return err
		}
		w.dirs[i] = d
	}
	rng := newRNG(w.seed)
	perDir := int64(s.FilesPerDir)
	err := w.phase(c, 0, func() error {
		return jittered(rng, s.Clients, perDir, func(cl int, idx int64) error {
			t := c.begin()
			_, err := srv.Create(w.dirs[cl], w.names[idx])
			return c.end(opMDSCreate, t, err)
		})
	})
	if err != nil {
		return err
	}
	err = w.phase(c, 1, func() error {
		return jittered(rng, s.Clients, perDir, func(cl int, idx int64) error {
			t := c.begin()
			ino, err := srv.Lookup(w.dirs[cl], w.names[idx])
			if err := c.end(opMDSLookup, t, err); err != nil {
				return err
			}
			t = c.begin()
			return c.end(opMDSUtime, t, srv.Utime(ino))
		})
	})
	if err != nil {
		return err
	}
	err = w.phase(c, 2, func() error {
		for cl, d := range w.dirs {
			t := c.begin()
			recs, err := srv.ReaddirPlus(d)
			if err := c.end(opMDSReaddirPlus, t, err); err != nil {
				return err
			}
			if len(recs) != s.FilesPerDir {
				w.readdirBad = append(w.readdirBad, fmt.Sprintf(
					"readdirplus client%02d: %d records, want %d", cl, len(recs), s.FilesPerDir))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return w.phase(c, 3, func() error {
		return jittered(rng, s.Clients, perDir, func(cl int, idx int64) error {
			t := c.begin()
			return c.end(opMDSUnlink, t, srv.Unlink(w.dirs[cl], w.names[idx]))
		})
	})
}

func (w *metarates) sim() ([]simMetric, error) {
	ops := float64(w.size.Clients * w.size.FilesPerDir)
	var total sim.Ns
	out := []simMetric{{name: "sim_s", unit: "sim_s"}}
	for i, elapsed := range w.phases {
		total += elapsed
		out = append(out, simMetric{"mds.sim_" + metaPhaseNames[i] + "_ops_s", "sim_ops/s", ops / sim.Seconds(elapsed)})
	}
	out[0].value = sim.Seconds(total)
	return out, nil
}

func (w *metarates) check(t *checkTimes) (int, []string) {
	_, fsck := fsckClean(w.srv.FS(), t)
	return len(w.dirs) + 1, append(w.readdirBad, fsck...)
}

func (w *metarates) close() {}

// ---- postmark-cached --------------------------------------------------

// postmarkSize sizes the postmark-cached workload.
type postmarkSize struct {
	Clients               int
	FilesPerClient        int
	TransactionsPerClient int
	MinBlocks, MaxBlocks  int64
}

type pmFile struct {
	name   string
	blocks int64
	handle *pfs.File
}

type postmark struct {
	size  postmarkSize
	rng   *rng
	fs    *pfs.FS
	dirs  []inode.Ino
	files [][]pmFile
	names []string // pre-built file names, one per possible create
	seq   int
}

func newPostmark(s postmarkSize, seed uint64, reg *telemetry.Registry, c *caller) (*postmark, error) {
	cfg := pfs.MiF(4)
	cfg.MDS.FS.SyncWrites = true
	cc := cache.DefaultConfig()
	cfg.Cache = &cc
	cfg.Metrics = reg
	fs, err := pfs.New(cfg)
	if err != nil {
		return nil, err
	}
	w := &postmark{
		size:  s,
		rng:   newRNG(seed),
		fs:    fs,
		dirs:  make([]inode.Ino, s.Clients),
		files: make([][]pmFile, s.Clients),
		names: make([]string, s.Clients*(s.FilesPerClient+s.TransactionsPerClient)),
	}
	for i := range w.names {
		w.names[i] = fmt.Sprintf("pm%07d", i)
	}
	for i := range w.dirs {
		t := c.begin()
		d, err := fs.Mkdir(fs.Root(), fmt.Sprintf("pm%02d", i))
		if err := c.end(opPFSMkdir, t, err); err != nil {
			closeMount(fs)
			return nil, err
		}
		w.dirs[i] = d
	}
	for cl := 0; cl < s.Clients; cl++ {
		for i := 0; i < s.FilesPerClient; i++ {
			if err := w.create(c, cl); err != nil {
				closeMount(fs)
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *postmark) fileBlocks() int64 {
	return w.size.MinBlocks + int64(w.rng.intn(int(w.size.MaxBlocks-w.size.MinBlocks+1)))
}

func streamOf(client int) core.StreamID { return core.StreamID{Client: uint32(client), PID: 1} }

// create makes, fills and closes one small file of the client.
func (w *postmark) create(c *caller, cl int) error {
	name := w.names[w.seq]
	w.seq++
	blocks := w.fileBlocks()
	t := c.begin()
	f, err := w.fs.Create(w.dirs[cl], name, blocks)
	if err := c.end(opPFSCreate, t, err); err != nil {
		return err
	}
	t = c.begin()
	err = f.Write(streamOf(cl), 0, blocks)
	if err := c.end(opPFSWrite, t, err); err != nil {
		return err
	}
	t = c.begin()
	err = f.Close()
	if err := c.end(opPFSClose, t, err); err != nil {
		return err
	}
	w.files[cl] = append(w.files[cl], pmFile{name: name, blocks: blocks, handle: f})
	return nil
}

// open opens a live file of the client picked by the seeded stream.
func (w *postmark) open(c *caller, cl int) (*pmFile, error) {
	pf := &w.files[cl][w.rng.intn(len(w.files[cl]))]
	t := c.begin()
	h, err := w.fs.Open(w.dirs[cl], pf.name)
	if err := c.end(opPFSOpen, t, err); err != nil {
		return nil, err
	}
	pf.handle = h
	return pf, nil
}

// transaction runs one PostMark transaction: create, delete, read the
// whole file, or append a file's worth of data, in equal shares.
func (w *postmark) transaction(c *caller, cl int) error {
	kind := w.rng.intn(4)
	if kind != 0 && len(w.files[cl]) == 0 {
		kind = 0
	}
	switch kind {
	case 0:
		return w.create(c, cl)
	case 1:
		files := w.files[cl]
		i := w.rng.intn(len(files))
		name := files[i].name
		files[i] = files[len(files)-1]
		w.files[cl] = files[:len(files)-1]
		t := c.begin()
		return c.end(opPFSDelete, t, w.fs.Delete(w.dirs[cl], name))
	case 2:
		pf, err := w.open(c, cl)
		if err != nil {
			return err
		}
		t := c.begin()
		if err := c.end(opPFSRead, t, pf.handle.Read(0, pf.blocks)); err != nil {
			return err
		}
		t = c.begin()
		return c.end(opPFSClose, t, pf.handle.Close())
	default:
		pf, err := w.open(c, cl)
		if err != nil {
			return err
		}
		add := w.fileBlocks()
		t := c.begin()
		if err := c.end(opPFSWrite, t, pf.handle.Write(streamOf(cl), pf.blocks, add)); err != nil {
			return err
		}
		pf.blocks += add
		t = c.begin()
		return c.end(opPFSClose, t, pf.handle.Close())
	}
}

func (w *postmark) run(c *caller) error {
	err := jittered(w.rng, w.size.Clients, int64(w.size.TransactionsPerClient), func(cl int, _ int64) error {
		return w.transaction(c, cl)
	})
	if err != nil {
		return err
	}
	t := c.begin()
	return c.end(opPFSSync, t, w.fs.Sync())
}

func (w *postmark) sim() ([]simMetric, error) {
	elapsed := w.fs.MDS().FS().Store().Disk().Stats().BusyNs + w.fs.DataBusyMax()
	extents := 0
	for _, files := range w.files {
		for _, pf := range files {
			n, err := w.fs.TotalExtents(pf.handle)
			if err != nil {
				return nil, err
			}
			extents += n
		}
	}
	return []simMetric{
		{"sim_s", "sim_s", sim.Seconds(elapsed)},
		{"ost.extents", "count", float64(extents)},
	}, nil
}

func (w *postmark) check(t *checkTimes) (int, []string) {
	rep, bad := fsckClean(w.fs.MDS().FS(), t)
	live := 0
	for _, files := range w.files {
		live += len(files)
	}
	if rep.Files != live {
		bad = append(bad, fmt.Sprintf("mdfs fsck reaches %d files, workload holds %d", rep.Files, live))
	}
	n, osts := checkOSTs(w.fs, t)
	return n + 2, append(bad, osts...)
}

func (w *postmark) close() { closeMount(w.fs) }
