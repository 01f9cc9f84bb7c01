package router

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/httpapi"
	"dod/internal/index"
	"dod/internal/retry"
	"dod/internal/stream"
)

// Run ingest (DESIGN §8). The per-point protocol costs one shard round
// trip per point and per eviction, plus support round trips per (point,
// peer). This path settles an ingest batch as RUNS — the batch's
// admissions and the capacity and TTL evictions they cause, in global seq
// order — each in two waves of one RPC per shard, the calls of a wave
// concurrent:
//
//  1. A read-only run probe (/v1/support): each shard returns its victims'
//     coordinates and, for each admission owned elsewhere whose L2
//     neighbourhood touches its cells, how many of its pre-run residents
//     neighbour it and are not evicted before it. With the run's own
//     earlier cross-shard admissions (the pairwise pass below, with the
//     index's acceptance rule) that is each admission's exact foreign
//     neighbour count at its position.
//  2. One seq-ordered script per shard (/v1/shard/ingest_batch): its own
//     admissions (with foreign counts) and evictions, plus a +1 or -1
//     support entry for every foreign admission or victim whose
//     neighbourhood touches its cells, applied under one lock.
//
// A run is cut only where the next victim was admitted earlier in the same
// run (batches longer than the capacity), so no admission of a run is also
// its victim. Failure: a failed probe errors the run's lines and changes
// nothing; a shard applies its script entirely or not at all, but the
// shards of a run are not atomic together — a shard whose script fails
// after retries errors its admissions and keeps its victims, while the
// ±1s others applied for its ops stay (the partial-application class of
// the per-point protocol, ROADMAP item 4).

// runOp is one staged op of a run, in global order.
type runOp struct {
	evict bool
	line  int        // the batch line the op is charged to
	pt    geom.Point // admissions; a victim's coordinates arrive in wave one
	id    uint64
	cell  []int64
	owner string
	seq   uint64 // admissions
}

// peerCells is one peer shard's share of a point's L2 neighbourhood.
type peerCells struct {
	owner string
	cells [][]int64
}

// runStage is the run being staged: its ops and the resident-set changes
// they make, none of them committed to the router's window yet.
type runStage struct {
	ops    []runOp
	gone   map[uint64]bool // staged victims
	added  map[uint64]bool // staged admissions
	cursor int             // next FIFO slot an eviction would take
	admits int
	nb     nbScratch
}

// reset starts the next run. The previous run's cells are dead once it has
// settled, so their store is reused.
func (st *runStage) reset(head int) {
	st.ops = st.ops[:0]
	clear(st.gone)
	clear(st.added)
	st.cursor = head
	st.admits = 0
	st.nb.cells = st.nb.cells[:0]
}

// resident reports whether id is in the window as staged so far.
func (st *runStage) resident(rt *Router, id uint64) bool {
	if st.added[id] {
		return true
	}
	_, ok := rt.residents[id]
	return ok && !st.gone[id]
}

// live is the staged window size.
func (st *runStage) live(rt *Router) int { return len(rt.residents) - len(st.gone) + st.admits }

// head returns the next committed resident in FIFO order, skipping ghost
// slots (residents a forced drain purged) and staged victims; ok is false
// when the committed FIFO is exhausted.
func (st *runStage) head(rt *Router) (id uint64, res resident, ok bool) {
	for ; st.cursor < len(rt.fifo); st.cursor++ {
		id = rt.fifo[st.cursor]
		if res, ok = rt.residents[id]; ok && !st.gone[id] {
			return id, res, true
		}
	}
	return 0, resident{}, false
}

// evict stages the FIFO head as a victim charged to line.
func (st *runStage) evict(topo *Topology, line int, id uint64, res resident) {
	st.ops = append(st.ops, runOp{evict: true, line: line, id: id, cell: res.cell, owner: topo.Owner(res.cell)})
	st.gone[id] = true
	st.cursor++
}

// ingestRunsLocked runs one ingest batch through the run protocol. It walks
// the batch exactly as the single-process window does — dimension check,
// duplicate check against the staged window, capacity evictions, TTL
// evictions, admission — staging ops instead of applying them. Callers
// hold rt.mu.
func (rt *Router) ingestRunsLocked(ctx context.Context, topo *Topology, now time.Time, reqID string, items []httpapi.BatchItem, out []verdictLine) {
	st := &runStage{gone: map[uint64]bool{}, added: map[uint64]bool{}, cursor: rt.head}
	evicted := make([]int, len(items)) // evictions applied for each line
	runs := 0
	staged := time.Now() // the current run's staging began
	settle := func() {
		if len(st.ops) > 0 {
			since(rt.met.stageTime.stage, staged)
			rt.settleRunLocked(ctx, topo, now, fmt.Sprintf("%s|run%d", reqID, runs), st, evicted, out)
			runs++
		}
		st.reset(rt.head)
		staged = time.Now()
	}
	horizonNs := now.Add(-rt.cfg.TTL).UnixNano()
	lineErr := func(i int, id uint64, err error) {
		out[i] = verdictLine{ID: id, Error: err.Error()}
		rt.met.lineErrors.Inc()
	}
	for i, it := range items {
		if it.Err != nil {
			lineErr(i, it.Pt.ID, it.Err)
			continue
		}
		rt.met.ingestLines.Inc()
		pt := it.Pt
		if pt.Dim() != rt.cfg.Dim {
			lineErr(i, pt.ID, &errs.DimMismatchError{ID: pt.ID, Got: pt.Dim(), Want: rt.cfg.Dim})
			continue
		}
		if st.resident(rt, pt.ID) {
			lineErr(i, pt.ID, &errs.DuplicateIDError{ID: pt.ID})
			continue
		}
		for rt.cfg.Capacity > 0 && st.live(rt) >= rt.cfg.Capacity {
			id, res, ok := st.head(rt)
			if !ok {
				// The next victim was admitted earlier in this run: settle
				// the run so far and keep evicting in a fresh one.
				settle()
				continue
			}
			st.evict(topo, i, id, res)
		}
		for rt.cfg.TTL > 0 {
			id, res, ok := st.head(rt)
			if !ok || res.arrivedNs >= horizonNs {
				break // staged points arrive now and are never due in their own batch
			}
			st.evict(topo, i, id, res)
		}
		if st.resident(rt, pt.ID) {
			// Only after a failed settle: a victim with this ID stayed.
			lineErr(i, pt.ID, &errs.DuplicateIDError{ID: pt.ID})
			continue
		}
		cell := topo.CellOf(pt.Coords)
		st.ops = append(st.ops, runOp{line: i, pt: pt, id: pt.ID, cell: cell, owner: topo.Owner(cell),
			seq: rt.seq + uint64(st.admits) + 1})
		st.added[pt.ID] = true
		st.admits++
	}
	settle()
}

// cellKey renders a cell coordinate vector into scratch for map lookups.
func cellKey(scratch []byte, c []int64) []byte {
	scratch = scratch[:0]
	for _, v := range c {
		scratch = binary.LittleEndian.AppendUint64(scratch, uint64(v))
	}
	return scratch
}

// nbScratch is the reusable state of neighbourhood calls within one run or
// score request: the block-owner memo of the op being resolved, and the
// flat store the peer cells handed out are copied into.
type nbScratch struct {
	edge   []int64  // the cube's lowest cell, per dimension
	lo     []int64  // the first block the cube overlaps, per dimension
	span   []int    // how many blocks the cube overlaps, per dimension
	owners []string // owner of each overlapped block, row-major
	rep    []int64  // a cell of the block being resolved
	cells  []int64  // backing store of the cells handed out
}

// cellChunk is how many coordinates one backing chunk of nbScratch.cells
// holds: a few hundred boundary cells, so a run allocates a handful of
// chunks instead of one slice per cell.
const cellChunk = 4096

// resolveBlocks memoises the owner of every block that the L2 cube around
// cell overlaps, one Topology.Owner call per block, and reports whether any
// of them is owned by a shard other than owner. Ownership only changes at
// block edges, so the cube's cells need no lookups of their own. The cube
// is clipped to the representable cell space, as index.RingCells clips it.
func (s *nbScratch) resolveBlocks(topo *Topology, l2 int, cell []int64, owner string) bool {
	topo.init()
	b, r := int64(topo.Block), int64(l2)
	s.edge, s.lo, s.span = s.edge[:0], s.lo[:0], s.span[:0]
	n := 1
	for _, c := range cell {
		lo, hi := c-r, c+r
		if c < math.MinInt64+r {
			lo = math.MinInt64
		}
		if c > math.MaxInt64-r {
			hi = math.MaxInt64
		}
		first := floorDiv(lo, b)
		span := int(floorDiv(hi, b)-first) + 1
		s.edge, s.lo, s.span = append(s.edge, lo), append(s.lo, first), append(s.span, span)
		n *= span
	}
	s.rep = append(s.rep[:0], cell...) // sized like cell; set per block below
	s.owners = s.owners[:0]
	foreign := false
	for f := 0; f < n; f++ {
		// Block f's first cell inside the cube: the cube's edge in the first
		// block of a dimension, the block's own first cell after it (which
		// lies between the two cube edges, so it cannot overflow).
		rem := f
		for i := len(cell) - 1; i >= 0; i-- {
			k := rem % s.span[i]
			rem /= s.span[i]
			if k == 0 {
				s.rep[i] = s.edge[i]
			} else {
				s.rep[i] = (s.lo[i] + int64(k)) * b
			}
		}
		o := topo.Owner(s.rep)
		s.owners = append(s.owners, o)
		foreign = foreign || o != owner
	}
	return foreign
}

// blockOwner returns the memoised owner of a cell inside the cube last
// resolved.
func (s *nbScratch) blockOwner(topo *Topology, c []int64) string {
	b := int64(topo.Block)
	f := 0
	for i, v := range c {
		f = f*s.span[i] + int(floorDiv(v, b)-s.lo[i])
	}
	return s.owners[f]
}

// keep copies c into the flat cell store.
func (s *nbScratch) keep(c []int64) []int64 {
	if cap(s.cells)-len(s.cells) < len(c) {
		s.cells = make([]int64, 0, max(cellChunk, len(c)))
	}
	n := len(s.cells)
	s.cells = append(s.cells, c...)
	return s.cells[n : n+len(c) : n+len(c)]
}

// neighbourhood groups the cells of the L2 neighbourhood around cell that
// shards other than owner own, by owner in order of first appearance, each
// owner's cells in index.RingCells order (radius 0 to l2). It resolves
// owners per block, and returns nil without enumerating a cell when owner
// owns every block the neighbourhood touches. An owner no shard has ("")
// groups the whole neighbourhood.
func neighbourhood(topo *Topology, l2 int, cell []int64, owner string, s *nbScratch) []peerCells {
	if !s.resolveBlocks(topo, l2, cell, owner) {
		return nil
	}
	var out []peerCells
	for radius := 0; radius <= l2; radius++ {
		index.RingCells(cell, radius, func(c []int64) {
			o := s.blockOwner(topo, c)
			if o == owner {
				return // the owning shard walks its own cells
			}
			k := 0
			for k < len(out) && out[k].owner != o {
				k++
			}
			if k == len(out) {
				out = append(out, peerCells{owner: o})
			}
			out[k].cells = append(out[k].cells, s.keep(c))
		})
	}
	return out
}

// chebyshev is the Chebyshev distance between two cells of one
// neighbourhood.
func chebyshev(a, b []int64) int {
	m := int64(0)
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		m = max(m, d)
	}
	return int(m)
}

// shardRun is one shard's share of a run: its wave-one probe and wave-two
// script, and which run op each answer belongs to.
type shardRun struct {
	probe    []stream.RunOp
	countOf  []int // run op of each count probe
	victimOf []int // run op of each victim
	script   []stream.RunOp
	admitOf  []int // run op of each admission in the script
	probed   SupportResponse
	applied  IngestBatchResponse
}

// sortedKeys returns a shard-keyed map's names in order.
func sortedKeys[V any](shards map[string]V) []string {
	names := make([]string, 0, len(shards))
	for name := range shards {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// wave issues call once per named shard, concurrently, and returns each
// shard's error.
func wave(names []string, call func(name string) error) []error {
	errsOut := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errsOut[i] = call(name)
		}()
	}
	wg.Wait()
	return errsOut
}

// settleRunLocked settles one staged run in its two waves and commits what
// the shards applied to the router's window bookkeeping. Callers hold rt.mu.
func (rt *Router) settleRunLocked(ctx context.Context, topo *Topology, now time.Time, key string, st *runStage, evicted []int, out []verdictLine) {
	t := time.Now()
	ops := st.ops
	shards := map[string]*shardRun{}
	get := func(name string) *shardRun {
		sr := shards[name]
		if sr == nil {
			sr = &shardRun{}
			shards[name] = sr
		}
		return sr
	}
	nb := make([][]peerCells, len(ops))
	for j := range ops {
		op := &ops[j]
		if op.evict {
			sr := get(op.owner)
			sr.probe = append(sr.probe, stream.RunOp{Kind: stream.RunEvict, ID: op.id})
			sr.victimOf = append(sr.victimOf, j)
			continue
		}
		nb[j] = neighbourhood(topo, rt.l2, op.cell, op.owner, &st.nb)
		for _, pc := range nb[j] {
			sr := get(pc.owner)
			sr.probe = append(sr.probe, stream.RunOp{Kind: stream.RunSupport, Point: op.pt, Cells: pc.cells})
			sr.countOf = append(sr.countOf, j)
		}
	}

	// Wave one: read-only probes.
	errs1 := wave(sortedKeys(shards), func(name string) error {
		sr := shards[name]
		rt.met.waveRPCs["1"].Inc()
		rt.met.supportRPCs.Inc()
		if err := rt.callShard(ctx, topo, name, PathSupport, key+"|p|"+name, EncodeRunProbe(sr.probe), &sr.probed); err != nil {
			return fmt.Errorf("shard %s unavailable: %v", name, err)
		}
		resp := &sr.probed
		switch {
		case resp.Error != "":
			return fmt.Errorf("%s", resp.Error)
		case len(resp.Counts) != len(sr.countOf) || len(resp.Victims) != len(sr.victimOf):
			return fmt.Errorf("shard %s: run probe answered %d counts and %d victims for %d and %d",
				name, len(resp.Counts), len(resp.Victims), len(sr.countOf), len(sr.victimOf))
		}
		for _, c := range resp.Victims {
			if len(c) != rt.cfg.Dim {
				return fmt.Errorf("shard %s: run probe answered a %d-d victim", name, len(c))
			}
		}
		return nil
	})
	t = since(rt.met.stageTime.wave1, t)
	for _, err := range errs1 {
		if err == nil {
			continue
		}
		for _, op := range ops {
			if !op.evict {
				out[op.line] = verdictLine{ID: op.id, Error: err.Error()}
				rt.met.lineErrors.Inc()
			}
		}
		return
	}

	// Foreign counts: pre-run residents from the probes, plus the run's own
	// earlier admissions on other shards, found by the index's acceptance
	// rule — cells within Chebyshev distance 1 accept outright, farther
	// cells need the exact distance check. Such a pair sits in one of the
	// later admission's peer cells, and the earlier admission, whose own
	// neighbourhood then holds a peer cell too, is a boundary op: only
	// boundary admissions are bucketed, and only peer cells are looked up.
	foreign := make([]int, len(ops))
	for _, sr := range shards {
		for k, j := range sr.countOf {
			foreign[j] += sr.probed.Counts[k]
		}
		for k, j := range sr.victimOf {
			ops[j].pt = geom.Point{ID: ops[j].id, Coords: sr.probed.Victims[k]}
		}
	}
	buckets := map[string][]int{} // cell -> boundary admissions in run order
	var kscratch []byte
	for j, op := range ops {
		if len(nb[j]) > 0 {
			kscratch = cellKey(kscratch, op.cell)
			buckets[string(kscratch)] = append(buckets[string(kscratch)], j)
		}
	}
	for q := range ops {
		oq := &ops[q]
		for _, pc := range nb[q] {
			for _, c := range pc.cells {
				kscratch = cellKey(kscratch, c)
				radius := chebyshev(c, oq.cell)
				for _, i := range buckets[string(kscratch)] {
					if i >= q {
						break
					}
					if radius <= 1 || geom.WithinDist(ops[i].pt, oq.pt, rt.cfg.R) {
						foreign[q]++
					}
				}
			}
		}
	}
	t = since(rt.met.stageTime.pairwise, t)

	// Wave two: one seq-ordered script per shard.
	for j := range ops {
		op := &ops[j]
		delta := +1
		own := get(op.owner)
		if op.evict {
			delta = -1
			nb[j] = neighbourhood(topo, rt.l2, op.cell, op.owner, &st.nb)
			own.script = append(own.script, stream.RunOp{Kind: stream.RunEvict, ID: op.id})
		} else {
			own.script = append(own.script, stream.RunOp{Kind: stream.RunAdmit, Point: op.pt, Seq: op.seq, Foreign: foreign[j]})
			own.admitOf = append(own.admitOf, j)
		}
		for _, pc := range nb[j] {
			sr := get(pc.owner)
			sr.script = append(sr.script, stream.RunOp{Kind: stream.RunSupport, Point: op.pt, Cells: pc.cells, Delta: delta})
		}
	}
	names := sortedKeys(shards)
	arrivedNs := now.UnixNano()
	errs2 := wave(names, func(name string) error {
		sr := shards[name]
		rt.met.waveRPCs["2"].Inc()
		body := EncodeRun(RunHeader{ArrivedNs: arrivedNs, Count: len(sr.script)}, sr.script)
		if err := rt.callShard(ctx, topo, name, PathShardIngestBatch, key+"|"+name, body, &sr.applied); err != nil {
			return fmt.Errorf("shard %s unavailable: %v", name, err)
		}
		if sr.applied.Error != "" {
			return fmt.Errorf("%s", sr.applied.Error)
		}
		if len(sr.applied.Neighbors) != len(sr.admitOf) {
			return fmt.Errorf("shard %s: %d results for %d admissions", name, len(sr.applied.Neighbors), len(sr.admitOf))
		}
		return nil
	})
	t = since(rt.met.stageTime.wave2, t)
	failed := map[string]error{}
	for i, err := range errs2 {
		if err != nil {
			failed[names[i]] = err
		}
	}

	// Commit. Victims on a failed shard stay resident and go back to the
	// front of the FIFO, in order; the rest leave the window.
	var keep []uint64
	for _, op := range ops {
		if !op.evict {
			continue
		}
		if failed[op.owner] != nil {
			keep = append(keep, op.id)
			continue
		}
		delete(rt.residents, op.id)
		evicted[op.line]++
		rt.met.evictions.Inc()
	}
	rt.head = st.cursor - len(keep)
	copy(rt.fifo[rt.head:], keep)
	rt.reclaimFifoLocked()
	// Admissions commit in run order. The run's sequence numbers are
	// consumed whatever the outcome: they were in the scripts before any
	// outcome was known, so a failed line leaves a gap.
	for name, sr := range shards {
		for k, j := range sr.admitOf {
			op := &ops[j]
			if err := failed[name]; err != nil {
				out[op.line] = verdictLine{ID: op.id, Error: err.Error()}
				rt.met.lineErrors.Inc()
				continue
			}
			n := sr.applied.Neighbors[k]
			out[op.line] = verdictLine{ID: op.id, Seq: op.seq, Neighbors: n,
				Outlier: n < rt.cfg.K, Evicted: evicted[op.line]}
		}
	}
	for _, op := range ops {
		if !op.evict && out[op.line].Error == "" {
			rt.fifo = append(rt.fifo, op.id)
			rt.residents[op.id] = resident{cell: op.cell, arrivedNs: arrivedNs}
		}
	}
	rt.seq += uint64(st.admits)
	since(rt.met.stageTime.commit, t)
}

// scoreBatch scores a whole request in one wave: one read-only support
// RPC per owning shard for every line, the calls concurrent. It then
// replays the per-line sequential accumulation — sorted owners, stop at K,
// breaker-open shards skipped — so every line answers exactly what the
// per-line protocol (scoreOne) would have.
func (rt *Router) scoreBatch(ctx context.Context, items []httpapi.BatchItem, out []scoreLine) {
	topo := rt.topology()
	type ownerProbes struct {
		body  supportBatch
		slots []int // each probe's slot in counts
		err   error
	}
	perOwner := map[string]*ownerProbes{}
	// Line i asks owners[first[i]:first[i+1]], sorted; each answer lands
	// in the same slot of counts. Lines answered up front ask nobody.
	first := make([]int, len(items)+1)
	var owners []string
	var s nbScratch
	for i, it := range items {
		first[i+1] = len(owners)
		if it.Err != nil {
			out[i] = scoreLine{ID: it.Pt.ID, Error: it.Err.Error()}
			rt.met.lineErrors.Inc()
			continue
		}
		rt.met.scoreLines.Inc()
		if it.Pt.Dim() != rt.cfg.Dim {
			err := &errs.DimMismatchError{ID: it.Pt.ID, Got: it.Pt.Dim(), Want: rt.cfg.Dim}
			out[i] = scoreLine{ID: it.Pt.ID, Error: err.Error()}
			rt.met.lineErrors.Inc()
			continue
		}
		nb := neighbourhood(topo, rt.l2, topo.CellOf(it.Pt.Coords), "", &s)
		slices.SortFunc(nb, func(a, b peerCells) int { return strings.Compare(a.owner, b.owner) })
		for _, pc := range nb {
			op := perOwner[pc.owner]
			if op == nil {
				op = &ownerProbes{body: newSupportBatch(SupportHeader{Delta: 0, Limit: rt.cfg.K})}
				perOwner[pc.owner] = op
			}
			op.body.add(it.Pt, pc.cells)
			op.slots = append(op.slots, len(owners))
			owners = append(owners, pc.owner)
		}
		first[i+1] = len(owners)
		s.cells = s.cells[:0] // the line's cells are encoded; reuse their store
	}
	// A shard whose breaker is open is not called: its slots stay 0, so the
	// lines degrade to what the healthy shards can see.
	counts := make([]int, len(owners))
	var calls []string
	for _, o := range sortedKeys(perOwner) {
		if rt.breaker(o).State() != retry.BreakerOpen {
			calls = append(calls, o)
		}
	}
	errsOut := wave(calls, func(o string) error {
		op := perOwner[o]
		var resp SupportResponse
		rt.met.supportRPCs.Inc()
		if err := rt.callShard(ctx, topo, o, PathSupport, "", op.body.seal(), &resp); err != nil {
			return fmt.Errorf("shard %s unavailable: %v", o, err)
		}
		if resp.Error != "" {
			return fmt.Errorf("%s", resp.Error)
		}
		if len(resp.Counts) != len(op.slots) {
			return fmt.Errorf("shard %s: support answered %d counts for %d probes", o, len(resp.Counts), len(op.slots))
		}
		for k, slot := range op.slots {
			counts[slot] = resp.Counts[k] // each owner writes only its own slots
		}
		return nil
	})
	for k, o := range calls {
		perOwner[o].err = errsOut[k]
	}
	// Replay: each per-owner capped count equals what a per-line call would
	// have returned, so accumulating them in the same sorted order — with
	// the same early stop at K — reproduces the per-line verdicts; an
	// unreachable owner only errors the lines that would have reached it.
	for i := range items {
		if first[i] == first[i+1] {
			continue // already answered (parse error or dimension mismatch)
		}
		total := 0
		var err error
		for slot := first[i]; slot < first[i+1]; slot++ {
			if err = perOwner[owners[slot]].err; err != nil {
				break
			}
			total += counts[slot]
			if total >= rt.cfg.K {
				break // already an inlier; min(total, K) is decided
			}
		}
		if err != nil {
			rt.met.lineErrors.Inc()
			out[i] = scoreLine{ID: items[i].Pt.ID, Error: err.Error()}
			continue
		}
		total = min(total, rt.cfg.K)
		out[i] = scoreLine{ID: items[i].Pt.ID, Neighbors: total, Outlier: total < rt.cfg.K}
	}
}
