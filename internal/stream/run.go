package stream

import (
	"fmt"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
)

// Runs. The sharded router settles an ingest batch's evictions and
// admissions as a run in global seq order (DESIGN §8): each shard answers
// a read-only probe of the run (ProbeRun), then applies its script of the
// run — its own admissions with their foreign neighbour counts, its own
// evictions, and a ±1 support entry for every foreign admission or
// eviction that touches its cells — under one lock (ApplyRun). Every
// resident receives every ±1 in the order a Window applies them, so
// counts, verdicts and flip totals equal Window's.
//
// A shard's index only ever holds points in cells the shard owns (drain
// and promotion move whole cells), so a script entry's local neighbour
// walk covers the whole index: foreign cells are empty here.

// RunOpKind tags one entry of a run script or run probe.
type RunOpKind uint8

const (
	// RunAdmit admits Point as global sequence number Seq with Foreign
	// neighbours already counted on other shards.
	RunAdmit RunOpKind = iota + 1
	// RunEvict evicts the resident with the given ID.
	RunEvict
	// RunSupport applies Delta to this shard's residents in Cells that
	// neighbour Point. In a run probe Delta is 0 and the entry is a count.
	RunSupport
)

// RunOp is one entry of a run, in global order.
type RunOp struct {
	Kind    RunOpKind
	Point   geom.Point // RunAdmit, RunSupport
	ID      uint64     // RunEvict
	Seq     uint64     // RunAdmit
	Foreign int        // RunAdmit
	Cells   [][]int64  // RunSupport
	Delta   int        // RunSupport: +1 or -1 in a script, 0 in a probe
}

// ProbeRun answers the read-only first wave of a run. ops holds, in run
// order, this shard's victims (RunEvict) and one RunSupport count probe per
// foreign admission that touches its cells. Each probe counts the residents
// in its cells that neighbour its point and are not evicted earlier in the
// run; counts answer the probes in order. victims returns each victim's
// point, in order, so the router can route its -1s to the other shards.
// Nothing is mutated.
func (sw *ShardWindow) ProbeRun(ops []RunOp) (counts []int, victims []geom.Point, err error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	gone := map[uint64]bool{}
	for _, op := range ops {
		switch op.Kind {
		case RunEvict:
			e := sw.entries[op.ID]
			if e == nil || gone[op.ID] {
				return nil, nil, fmt.Errorf("run victim %d is not resident", op.ID)
			}
			gone[op.ID] = true
			victims = append(victims, e.pt)
		case RunSupport:
			n := 0
			if _, err := sw.ix.NeighborsInCells(op.Point, op.Cells, 0, func(q geom.Point) {
				if !gone[q.ID] {
					n++
				}
			}); err != nil {
				return nil, nil, err
			}
			counts = append(counts, n)
		default:
			return nil, nil, fmt.Errorf("run probe: unexpected op kind %d", op.Kind)
		}
	}
	return counts, victims, nil
}

// ApplyRun applies this shard's script of a run under one lock and returns
// the verdicts of its admissions, in order. The script is checked in full
// before anything changes — dimensions, duplicate admissions, victims that
// are not resident — so it applies entirely or not at all. Each entry is
// recorded as the Admit, Evict or Support op it is, so a standby replays a
// run op by op.
func (sw *ShardWindow) ApplyRun(ops []RunOp, now time.Time) ([]Verdict, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if err := sw.checkRunLocked(ops); err != nil {
		return nil, err
	}
	var verdicts []Verdict
	for _, op := range ops {
		switch op.Kind {
		case RunAdmit:
			n := op.Foreign
			sw.walkLocked(op.Point, func(e *entry) { n++; sw.bump(e, +1) })
			v, err := sw.insertLocked(op.Point, op.Seq, now, n, op.Foreign)
			if err != nil {
				return verdicts, err
			}
			verdicts = append(verdicts, v)
		case RunEvict:
			victim := sw.entries[op.ID]
			sw.walkLocked(victim.pt, func(e *entry) { sw.bump(e, -1) })
			sw.removeLocked(victim)
		case RunSupport:
			if _, err := sw.applyLocalDelta(op.Point, op.Cells, op.Delta); err != nil {
				return verdicts, err
			}
			if sw.rec != nil {
				sw.rec.RecordSupport(op.Point, op.Cells, op.Delta)
			}
		}
	}
	return verdicts, nil
}

// checkRunLocked validates a script against the current residents without
// changing them. Callers hold sw.mu.
func (sw *ShardWindow) checkRunLocked(ops []RunOp) error {
	change := map[uint64]bool{} // IDs the script has admitted (true) or evicted (false) so far
	resident := func(id uint64) bool {
		if in, ok := change[id]; ok {
			return in
		}
		return sw.entries[id] != nil
	}
	for _, op := range ops {
		switch op.Kind {
		case RunAdmit, RunSupport:
			if op.Point.Dim() != sw.cfg.Dim {
				return &errs.DimMismatchError{ID: op.Point.ID, Got: op.Point.Dim(), Want: sw.cfg.Dim}
			}
			if op.Kind == RunSupport && op.Delta != 1 && op.Delta != -1 {
				return fmt.Errorf("run support delta %d, want ±1", op.Delta)
			}
			if op.Kind == RunAdmit {
				if resident(op.Point.ID) {
					return &errs.DuplicateIDError{ID: op.Point.ID}
				}
				change[op.Point.ID] = true
			}
		case RunEvict:
			if !resident(op.ID) {
				return fmt.Errorf("run victim %d is not resident", op.ID)
			}
			change[op.ID] = false
		default:
			return fmt.Errorf("run: unknown op kind %d", op.Kind)
		}
	}
	return nil
}

// walkLocked visits every resident neighbour of p. Callers hold sw.mu.
func (sw *ShardWindow) walkLocked(p geom.Point, fn func(e *entry)) {
	sw.ix.NeighborsScratch(sw.sc, p, func(q geom.Point) { fn(sw.entries[q.ID]) }) //nolint:errcheck // dimension checked by checkRunLocked
}
