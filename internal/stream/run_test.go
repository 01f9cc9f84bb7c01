package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dod/internal/geom"
)

// opLog is an in-test OpRecorder: it keeps a primary's ops so a standby
// can replay them.
type opLog struct{ ops []RunOp }

func (l *opLog) RecordAdmit(p geom.Point, seq uint64, arrivedNs int64, foreign int) {
	l.ops = append(l.ops, RunOp{Kind: RunAdmit, Point: p.Clone(), Seq: seq, Foreign: foreign})
}
func (l *opLog) RecordEvict(id uint64) { l.ops = append(l.ops, RunOp{Kind: RunEvict, ID: id}) }
func (l *opLog) RecordSupport(p geom.Point, cells [][]int64, delta int) {
	l.ops = append(l.ops, RunOp{Kind: RunSupport, Point: p.Clone(), Cells: cells, Delta: delta})
}
func (l *opLog) RecordImport([]ExportedEntry) {}

// scriptOp is one op of a window-ordered admit/evict script.
type scriptOp struct {
	evict bool
	id    uint64     // victim ID
	pt    geom.Point // admission
	seq   uint64
}

// settleRun settles one run across the harness's shards the way the
// router does: a read-only ProbeRun per shard, the run's earlier
// cross-shard admissions counted here, then one ApplyRun script per shard.
// It returns the admissions' verdicts in run order.
func (h *shardHarness) settleRun(ops []scriptOp, now time.Time) []Verdict {
	h.t.Helper()
	ix := h.shards[h.names[0]].ix
	owners := make([]string, len(ops))
	cells := make([][]int64, len(ops))
	pts := make([]geom.Point, len(ops))
	for j, op := range ops {
		if op.evict {
			cells[j] = h.cells[op.id]
		} else {
			pts[j] = op.pt
			cells[j] = append([]int64(nil), ix.CellCoords(op.pt)...)
		}
		owners[j] = h.owner(cells[j])
	}
	// foreignCells groups the cells of a neighbourhood that other shards own.
	foreignCells := func(j int) map[string][][]int64 {
		out := map[string][][]int64{}
		ix.NeighborhoodCells(pts[j], func(c []int64) {
			if o := h.owner(c); o != owners[j] {
				out[o] = append(out[o], append([]int64(nil), c...))
			}
		})
		return out
	}

	probes := map[string][]RunOp{}
	countOf, victimOf := map[string][]int{}, map[string][]int{}
	for j, op := range ops {
		if op.evict {
			probes[owners[j]] = append(probes[owners[j]], RunOp{Kind: RunEvict, ID: op.id})
			victimOf[owners[j]] = append(victimOf[owners[j]], j)
			continue
		}
		for o, cs := range foreignCells(j) {
			probes[o] = append(probes[o], RunOp{Kind: RunSupport, Point: op.pt, Cells: cs})
			countOf[o] = append(countOf[o], j)
		}
	}
	foreign := make([]int, len(ops))
	for name, ps := range probes {
		counts, victims, err := h.shards[name].ProbeRun(ps)
		if err != nil {
			h.t.Fatalf("probe %s: %v", name, err)
		}
		for k, j := range countOf[name] {
			foreign[j] += counts[k]
		}
		for k, j := range victimOf[name] {
			pts[j] = victims[k]
		}
	}
	r := h.shards[h.names[0]].cfg.R
	for q := range ops {
		for i := 0; i < q; i++ {
			if ops[q].evict || ops[i].evict || owners[i] == owners[q] {
				continue
			}
			if d := chebDist(cells[i], cells[q]); d <= 1 || (d <= int64(ix.L2()) && geom.WithinDist(pts[i], pts[q], r)) {
				foreign[q]++
			}
		}
	}

	scripts := map[string][]RunOp{}
	admitOf := map[string][]int{}
	for j, op := range ops {
		delta := +1
		if op.evict {
			delta = -1
			scripts[owners[j]] = append(scripts[owners[j]], RunOp{Kind: RunEvict, ID: op.id})
		} else {
			scripts[owners[j]] = append(scripts[owners[j]], RunOp{Kind: RunAdmit, Point: op.pt, Seq: op.seq, Foreign: foreign[j]})
			admitOf[owners[j]] = append(admitOf[owners[j]], j)
		}
		for o, cs := range foreignCells(j) {
			scripts[o] = append(scripts[o], RunOp{Kind: RunSupport, Point: pts[j], Cells: cs, Delta: delta})
		}
	}
	byOp := make([]Verdict, len(ops))
	for name, sc := range scripts {
		vs, err := h.shards[name].ApplyRun(sc, now)
		if err != nil {
			h.t.Fatalf("apply %s: %v", name, err)
		}
		for k, j := range admitOf[name] {
			byOp[j] = vs[k]
		}
	}
	var out []Verdict
	for j, op := range ops {
		if op.evict {
			delete(h.cells, op.id)
		} else {
			h.cells[op.pt.ID] = cells[j]
			out = append(out, byOp[j])
		}
	}
	return out
}

func chebDist(a, b []int64) int64 {
	var m int64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		m = max(m, d)
	}
	return m
}

// TestRunsMatchWindow is the run protocol's unit property. A Window with a
// random capacity turns a random stream into an admit/evict script; the
// script is cut into random runs (never evicting a point admitted in the
// same run, as the router cuts them) and settled across 1, 2 and 4
// ShardWindows. Every admission verdict, every final count, and the summed
// flip totals must equal the Window's, and a standby replaying each
// primary's recorded ops must reach the primary's digest.
func TestRunsMatchWindow(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				const r, k = 1.2, 3
				rng := rand.New(rand.NewSource(seed))
				capacity := 20 + rng.Intn(100)
				ref, err := NewWindow(Config{R: r, K: k, Dim: 2, Capacity: capacity})
				if err != nil {
					t.Fatal(err)
				}
				h := newShardHarness(t, shards, ShardConfig{R: r, K: k, Dim: 2}, 2)
				logs := map[string]*opLog{}
				for name, sw := range h.shards {
					logs[name] = &opLog{}
					sw.SetRecorder(logs[name])
				}
				now := time.Unix(1700000000, 0)
				var fifo []uint64
				var run []scriptOp
				var want []Verdict
				inRun := map[uint64]bool{}
				settle := func() {
					got := h.settleRun(run, now)
					if len(got) != len(want) {
						t.Fatalf("run of %d ops: %d verdicts, want %d", len(run), len(got), len(want))
					}
					for i := range got {
						got[i].Evicted = want[i].Evicted
						if got[i] != want[i] {
							t.Fatalf("point %d: sharded verdict %+v != window %+v", want[i].ID, got[i], want[i])
						}
					}
					run, want = run[:0], want[:0]
					clear(inRun)
				}
				for i := 0; i < 600; i++ {
					p := geom.Point{ID: uint64(i + 1), Coords: []float64{rng.Float64() * 10, rng.Float64() * 10}}
					v, err := ref.Process(p, now)
					if err != nil {
						t.Fatal(err)
					}
					for e := 0; e < v.Evicted; e++ {
						id := fifo[0]
						fifo = fifo[1:]
						if inRun[id] || rng.Float64() < 0.02 {
							settle()
						}
						run = append(run, scriptOp{evict: true, id: id})
					}
					if rng.Float64() < 0.05 {
						settle()
					}
					run = append(run, scriptOp{pt: p, seq: v.Seq})
					want = append(want, v)
					inRun[p.ID] = true
					fifo = append(fifo, p.ID)
				}
				settle()

				counts := map[uint64]ExportedEntry{}
				var flipIn, flipOut uint64
				for _, sw := range h.shards {
					for _, e := range sw.Export() {
						counts[e.Point.ID] = e
					}
					st := sw.Stats()
					flipIn += st.FlipIn
					flipOut += st.FlipOut
				}
				ref.mu.Lock()
				if len(counts) != len(ref.entries) {
					t.Fatalf("residents: sharded %d != window %d", len(counts), len(ref.entries))
				}
				for id, e := range ref.entries {
					if got := counts[id]; got.Count != e.count || got.Outlier != e.outlier {
						t.Fatalf("point %d: sharded count %d outlier %v != window %d %v", id, got.Count, got.Outlier, e.count, e.outlier)
					}
				}
				ref.mu.Unlock()
				if st := ref.Stats(); flipIn != st.FlipIn || flipOut != st.FlipOut {
					t.Fatalf("flips: sharded (%d,%d) != window (%d,%d)", flipIn, flipOut, st.FlipIn, st.FlipOut)
				}

				for name, sw := range h.shards {
					standby, err := NewShardWindow(ShardConfig{R: r, K: k, Dim: 2})
					if err != nil {
						t.Fatal(err)
					}
					for _, op := range logs[name].ops {
						if _, err := standby.ApplyRun([]RunOp{op}, now); err != nil {
							t.Fatalf("%s replay: %v", name, err)
						}
					}
					pd, pn := sw.Digest()
					sd, sn := standby.Digest()
					if pd != sd || pn != sn {
						t.Fatalf("%s: standby digest (%x, %d) != primary (%x, %d)", name, sd, sn, pd, pn)
					}
				}
			})
		}
	}
}

// TestApplyRunAllOrNothing pins the per-shard atomicity the router's
// failure handling relies on: a script with a bad entry anywhere changes
// nothing, and a run probe for a victim that is not resident fails.
func TestApplyRunAllOrNothing(t *testing.T) {
	sw := digestWindow(t, 12)
	before, n := sw.Digest()
	bad := [][]RunOp{
		{{Kind: RunAdmit, Point: geom.Point{ID: 500, Coords: []float64{1, 1}}, Seq: 500}, {Kind: RunEvict, ID: 999}},
		{{Kind: RunEvict, ID: 1}, {Kind: RunEvict, ID: 1}},
		{{Kind: RunAdmit, Point: geom.Point{ID: 2, Coords: []float64{1, 1}}, Seq: 500}},
		{{Kind: RunSupport, Point: geom.Point{ID: 9, Coords: []float64{1, 1}}, Cells: [][]int64{{2, 2}}, Delta: 2}},
		{{Kind: RunAdmit, Point: geom.Point{ID: 501, Coords: []float64{1}}, Seq: 501}},
	}
	for i, ops := range bad {
		if _, err := sw.ApplyRun(ops, time.Unix(0, 0)); err == nil {
			t.Fatalf("script %d applied", i)
		}
		if d, m := sw.Digest(); d != before || m != n {
			t.Fatalf("script %d: rejected script changed the window", i)
		}
	}
	if _, _, err := sw.ProbeRun([]RunOp{{Kind: RunEvict, ID: 999}}); err == nil {
		t.Fatal("run probe accepted a victim that is not resident")
	}
}
