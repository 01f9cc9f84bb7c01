package router

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dod/internal/detect"
	"dod/internal/index"
)

// perCellPeers is the per-cell reference for neighbourhood: every cell of
// the L2 neighbourhood looked up with Topology.Owner on its own, grouped
// by owner in order of first appearance.
func perCellPeers(topo *Topology, l2 int, cell []int64, owner string) []peerCells {
	var out []peerCells
	for radius := 0; radius <= l2; radius++ {
		index.RingCells(cell, radius, func(c []int64) {
			o := topo.Owner(c)
			if o == owner {
				return
			}
			k := 0
			for k < len(out) && out[k].owner != o {
				k++
			}
			if k == len(out) {
				out = append(out, peerCells{owner: o})
			}
			out[k].cells = append(out[k].cells, append([]int64(nil), c...))
		})
	}
	return out
}

// sameCells reports whether two cell lists are equal, order included.
func sameCells(a, b [][]int64) bool {
	return slices.EqualFunc(a, b, slices.Equal[[]int64])
}

// samePeers reports whether two groupings are equal, order included.
func samePeers(a, b []peerCells) bool {
	return slices.EqualFunc(a, b, func(x, y peerCells) bool { return x.owner == y.owner && sameCells(x.cells, y.cells) })
}

func blockTopology(dim, block, shards int) *Topology {
	t := &Topology{Epoch: 1, Dim: dim, R: 5, K: 4, Block: block, Vnodes: 16}
	for i := 0; i < shards; i++ {
		t.Shards = append(t.Shards, ShardInfo{Name: fmt.Sprintf("s%d", i)})
	}
	return t
}

// probeCells returns cells that stress block resolution: block corners
// and their neighbours on both sides of the origin, random cells, and
// cells within L2 of the ends of the representable cell space. In 4-D,
// where a neighbourhood has 6561 cells, it probes one block corner.
func probeCells(rng *rand.Rand, dim, block, l2 int) [][]int64 {
	b := int64(block)
	bases, offs := []int64{0, 3 * b, -5 * b}, []int64{-1, 0, 1, int64(l2)}
	if dim == 4 {
		bases = []int64{-5 * b}
	}
	var cells [][]int64
	for _, base := range bases {
		for _, off := range offs {
			c := make([]int64, dim)
			for i := range c {
				c[i] = base + off
			}
			cells = append(cells, c)
		}
	}
	for k := 0; k < 3; k++ {
		c := make([]int64, dim)
		for i := range c {
			c[i] = rng.Int63n(200) - 100
		}
		cells = append(cells, c)
	}
	for _, edge := range []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - int64(l2) + 1, math.MaxInt64} {
		c := make([]int64, dim)
		for i := range c {
			c[i] = rng.Int63n(20) - 10
		}
		c[rng.Intn(dim)] = edge
		cells = append(cells, c)
		all := make([]int64, dim)
		for i := range all {
			all[i] = edge
		}
		cells = append(cells, all)
	}
	return cells
}

// TestNeighbourhoodMatchesPerCellOwners pins block-granular ownership to
// per-cell lookups: for every dimension, block side (including blocks
// narrower than the neighbourhood), shard count and probe cell, the peer
// cells come back exactly as per-cell lookups group them, cell order
// included; and the whole-neighbourhood grouping the score path sends
// matches scoreOne's.
func TestNeighbourhoodMatchesPerCellOwners(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for dim := 1; dim <= 4; dim++ {
		l2 := detect.L2Radius(dim)
		for _, block := range []int{1, 2, 5, 16} {
			for shards := 1; shards <= 5; shards++ {
				if dim == 4 && shards%3 != 2 {
					continue // 4-D: 2 and 5 shards
				}
				topo := blockTopology(dim, block, shards)
				var s nbScratch
				for _, cell := range probeCells(rng, dim, block, l2) {
					own := topo.Owner(cell)
					for _, owner := range []string{own, "s0"} {
						got := neighbourhood(topo, l2, cell, owner, &s)
						if want := perCellPeers(topo, l2, cell, owner); !samePeers(got, want) {
							t.Fatalf("dim %d block %d shards %d cell %v owner %s:\ngot  %v\nwant %v", dim, block, shards, cell, owner, got, want)
						}
					}
					all := neighbourhood(topo, l2, cell, "", &s)
					byOwner := cellsByOwner(topo, l2, cell)
					if len(all) != len(byOwner) {
						t.Fatalf("dim %d block %d shards %d cell %v: %d owners, scoreOne groups %d", dim, block, shards, cell, len(all), len(byOwner))
					}
					for _, pc := range all {
						if !sameCells(pc.cells, byOwner[pc.owner]) {
							t.Fatalf("dim %d block %d shards %d cell %v: owner %s cells differ from scoreOne's", dim, block, shards, cell, pc.owner)
						}
					}
				}
			}
		}
	}
}

// interiorCell finds a 2-D cell whose whole neighbourhood its owner owns.
func interiorCell(t testing.TB, topo *Topology) []int64 {
	for x := int64(0); x < 1000; x++ {
		c := []int64{x, 8}
		if perCellPeers(topo, detect.L2Radius(2), c, topo.Owner(c)) == nil {
			return c
		}
	}
	t.Fatal("no interior cell")
	return nil
}

// cornerCell finds a 2-D block corner whose neighbourhood spans three
// owners.
func cornerCell(t testing.TB, topo *Topology) []int64 {
	b := int64(topo.Block)
	for k := int64(1); k < 1000; k++ {
		c := []int64{k * b, b}
		if len(perCellPeers(topo, detect.L2Radius(2), c, topo.Owner(c))) == 2 {
			return c
		}
	}
	t.Fatal("no three-owner corner")
	return nil
}

// TestNeighbourhoodInteriorAllocs pins the common case: an op whose whole
// neighbourhood is its own shard's costs no allocation.
func TestNeighbourhoodInteriorAllocs(t *testing.T) {
	topo := blockTopology(2, DefaultBlock, 3)
	cell := interiorCell(t, topo)
	owner := topo.Owner(cell)
	var s nbScratch
	if n := testing.AllocsPerRun(100, func() {
		if neighbourhood(topo, detect.L2Radius(2), cell, owner, &s) != nil {
			t.Fatal("interior cell has peers")
		}
	}); n != 0 {
		t.Fatalf("interior neighbourhood allocates %.1f times per op, want 0", n)
	}
}

func BenchmarkRouterNeighbourhood(b *testing.B) {
	topo := blockTopology(2, DefaultBlock, 3)
	l2 := detect.L2Radius(2)
	for _, bc := range []struct {
		name string
		cell []int64
	}{{"interior", interiorCell(b, topo)}, {"corner", cornerCell(b, topo)}} {
		b.Run(bc.name, func(b *testing.B) {
			owner := topo.Owner(bc.cell)
			var s nbScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.cells = s.cells[:0]
				neighbourhood(topo, l2, bc.cell, owner, &s)
			}
		})
	}
}
