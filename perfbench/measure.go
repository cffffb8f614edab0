package main

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// op names one kind of client call the benchmark issues into a layer.
type op int

const (
	opPFSMkdir op = iota
	opPFSCreate
	opPFSOpen
	opPFSWrite
	opPFSRead
	opPFSFlush
	opPFSSync
	opPFSClose
	opPFSDelete
	opMDSMkdir
	opMDSCreate
	opMDSLookup
	opMDSUtime
	opMDSReaddirPlus
	opMDSUnlink
	opMDFSSync
	numOps
)

var opNames = [numOps]string{
	"pfs.mkdir", "pfs.create", "pfs.open", "pfs.write", "pfs.read", "pfs.flush", "pfs.sync",
	"pfs.close", "pfs.delete",
	"mds.mkdir", "mds.create", "mds.lookup", "mds.utime", "mds.readdirplus", "mds.unlink",
	"mdfs.sync",
}

// caller issues a closed loop from one goroutine: each call returns before
// the next is made. It counts calls and failures, and on traced rounds
// keeps every call's host duration in memory until the run ends.
type caller struct {
	// spans holds per-op host durations in ns; nil when untraced.
	spans  *[numOps][]int64
	calls  int64
	failed int64
}

// begin marks the start of one call; it reads the clock only when tracing.
func (c *caller) begin() time.Time {
	if c.spans == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes the call begun at t, recording its span and error.
func (c *caller) end(o op, t time.Time, err error) error {
	c.calls++
	if err != nil {
		c.failed++
		return fmt.Errorf("%s: %w", opNames[o], err)
	}
	if c.spans != nil {
		c.spans[o] = append(c.spans[o], int64(time.Since(t)))
	}
	return nil
}

var epoch = time.Now()

// now returns monotonic host nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// since returns the host nanoseconds elapsed from start.
func since(start int64) int64 { return now() - start }

// rng is a splitmix64 generator: the benchmark derives every input and
// arrival order from it, so the same seed gives the same inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// jittered drives ranks through perRank sequential requests each, in a
// seeded arrival order: at every step one unfinished rank, chosen
// uniformly, issues its next request. That models the skew of a cluster's
// concurrent clients while staying deterministic under the seed.
func jittered(r *rng, ranks int, perRank int64, issue func(rank int, idx int64) error) error {
	next := make([]int64, ranks)
	live := make([]int, ranks)
	for i := range live {
		live[i] = i
	}
	if perRank <= 0 {
		live = live[:0]
	}
	for len(live) > 0 {
		i := r.intn(len(live))
		rank := live[i]
		if err := issue(rank, next[rank]); err != nil {
			return err
		}
		next[rank]++
		if next[rank] == perRank {
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return nil
}

// median returns the middle value (mean of the two middle values).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// p99Samples is the sample count from which p99 has at least ten samples
// beyond it; below it only the median and the count are reported.
const p99Samples = 1000

// refNode is the reference kernel's heap object.
type refNode struct {
	key  uint64
	next *refNode
	pad  [4]uint64
}

// refWork is a fixed piece of host work of the kinds the simulator does:
// small allocations, map inserts and lookups, pointer chasing and a sort.
func refWork() uint64 {
	const n = 1 << 14
	r := newRNG(0)
	m := make(map[uint64]*refNode)
	keys := make([]uint64, n)
	var head *refNode
	for i := range keys {
		k := r.next()
		keys[i] = k
		head = &refNode{key: k, next: head}
		m[k] = head
	}
	var sum uint64
	for i := 0; i < 8*n; i++ {
		sum += m[keys[r.intn(n)]].key
	}
	slices.Sort(keys)
	for nd := head; nd != nil; nd = nd.next {
		sum ^= nd.key
	}
	return sum + keys[n/2]
}
