package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dod/internal/geom"
	"dod/internal/index"
	"dod/internal/stream"
)

func testTopology(shards ...string) *Topology {
	t := &Topology{Epoch: 1, Dim: 2, R: 5, K: 4, Block: 4, Vnodes: 32}
	for _, s := range shards {
		t.Shards = append(t.Shards, ShardInfo{Name: s, URL: "http://" + s})
	}
	return t
}

// Ownership must be a pure function of the marshaled topology: two
// processes that exchange the JSON form agree on every cell, and epoch or
// URL changes don't move blocks.
func TestTopologyOwnerDeterministic(t *testing.T) {
	topo := testTopology("a", "b", "c")
	raw, err := json.Marshal(topo)
	if err != nil {
		t.Fatal(err)
	}
	var remote Topology
	if err := json.Unmarshal(raw, &remote); err != nil {
		t.Fatal(err)
	}
	for x := int64(-50); x <= 50; x += 3 {
		for y := int64(-50); y <= 50; y += 3 {
			cell := []int64{x, y}
			if got, want := remote.Owner(cell), topo.Owner(cell); got != want {
				t.Fatalf("cell %v: remote owner %q != local %q", cell, got, want)
			}
		}
	}
}

// Cells in the same block share an owner — the invariant that keeps ring
// expansion shard-local for interior cells.
func TestTopologyBlockLocality(t *testing.T) {
	topo := testTopology("a", "b", "c", "d")
	for bx := int64(-4); bx < 4; bx++ {
		for by := int64(-4); by < 4; by++ {
			base := topo.Owner([]int64{bx * int64(topo.Block), by * int64(topo.Block)})
			for dx := int64(0); dx < int64(topo.Block); dx++ {
				for dy := int64(0); dy < int64(topo.Block); dy++ {
					cell := []int64{bx*int64(topo.Block) + dx, by*int64(topo.Block) + dy}
					if got := topo.Owner(cell); got != base {
						t.Fatalf("cell %v owned by %q, block corner by %q", cell, got, base)
					}
				}
			}
		}
	}
}

// Removing one shard must not move blocks between surviving shards —
// the consistent-hashing property that makes drain/handoff touch only the
// departing shard's points.
func TestTopologyWithoutIsMinimal(t *testing.T) {
	topo := testTopology("a", "b", "c", "d")
	after := topo.Without("c")
	if after.Epoch != topo.Epoch+1 {
		t.Fatalf("Without epoch = %d, want %d", after.Epoch, topo.Epoch+1)
	}
	moved, kept := 0, 0
	for x := int64(-200); x <= 200; x += 7 {
		for y := int64(-200); y <= 200; y += 7 {
			cell := []int64{x, y}
			before := topo.Owner(cell)
			now := after.Owner(cell)
			if before == "c" {
				if now == "c" {
					t.Fatalf("cell %v still owned by removed shard", cell)
				}
				moved++
				continue
			}
			if now != before {
				t.Fatalf("cell %v moved %q -> %q though %q was not removed", cell, before, now, before)
			}
			kept++
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// The distribution across shards should be roughly balanced (vnodes do the
// smoothing); a catastrophically skewed ring would defeat sharding.
func TestTopologyBalance(t *testing.T) {
	topo := testTopology("a", "b", "c", "d")
	counts := map[string]int{}
	total := 0
	for x := int64(-300); x <= 300; x += int64(topo.Block) {
		for y := int64(-300); y <= 300; y += int64(topo.Block) {
			counts[topo.Owner([]int64{x, y})]++
			total++
		}
	}
	for name, n := range counts {
		frac := float64(n) / float64(total)
		if frac < 0.05 {
			t.Errorf("shard %q owns %.1f%% of blocks — ring badly skewed", name, frac*100)
		}
	}
}

// CellOf must agree bit-for-bit with the incremental index's cell layout;
// a disagreement would route a point to a shard that files it in a
// different cell than the topology thinks it owns.
func TestCellOfMatchesIndex(t *testing.T) {
	topo := &Topology{Dim: 2, R: 5, Shards: []ShardInfo{{Name: "a"}}}
	ix, err := index.New(index.Config{Dim: 2, R: 5})
	if err != nil {
		t.Fatal(err)
	}
	pts := [][]float64{
		{0, 0}, {-0.0001, 0.0001}, {17.3, -42.8}, {1e9, -1e9},
		{math.Pi, -math.E}, {-5, 5}, {2.5, 2.5},
	}
	for i, coords := range pts {
		p := geom.Point{ID: uint64(i), Coords: coords}
		got := topo.CellOf(coords)
		want := ix.CellCoords(p)
		for d := range got {
			if got[d] != want[d] {
				t.Fatalf("point %v: topology cell %v != index cell %v", coords, got, want)
			}
		}
	}
}

func TestWireRoundTrips(t *testing.T) {
	p := geom.Point{ID: 42, Coords: []float64{1.5, -2.25}}

	ib := EncodeIngest(IngestHeader{Seq: 7, ArrivedNs: 123456}, p)
	hdr, gotP, err := DecodeIngest(ib)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Seq != 7 || hdr.ArrivedNs != 123456 || !gotP.Equal(p) {
		t.Fatalf("ingest round-trip mismatch: %+v %v", hdr, gotP)
	}

	cells := [][]int64{{-3, 4}, {0, 0}, {9223372036854775807, -9223372036854775808}}
	sb := EncodeSupport(SupportHeader{Delta: -1, Limit: 5}, p, cells)
	shdr, sp, gotCells, err := DecodeSupport(sb)
	if err != nil {
		t.Fatal(err)
	}
	if shdr.Delta != -1 || shdr.Limit != 5 || !sp.Equal(p) || len(gotCells) != len(cells) {
		t.Fatalf("support round-trip mismatch: %+v %v %v", shdr, sp, gotCells)
	}
	for i := range cells {
		for d := range cells[i] {
			if gotCells[i][d] != cells[i][d] {
				t.Fatalf("cell %d mismatch: %v != %v", i, gotCells[i], cells[i])
			}
		}
	}

	one := newSupportBatch(SupportHeader{Delta: -1, Limit: 5})
	one.add(p, cells)
	if !bytes.Equal(one.seal(), sb) {
		t.Fatal("a one-probe support batch differs from EncodeSupport's body")
	}
	q := geom.Point{ID: 43, Coords: []float64{0, 1}}
	two := newSupportBatch(SupportHeader{Limit: 3})
	two.add(p, cells)
	two.add(q, cells[:1])
	bhdr, probes, _, err := DecodeSupportBatch(two.seal())
	if err != nil {
		t.Fatal(err)
	}
	if bhdr.Limit != 3 || len(probes) != 2 || !probes[0].Point.Equal(p) || !probes[1].Point.Equal(q) ||
		!reflect.DeepEqual(probes[0].Cells, cells) || !reflect.DeepEqual(probes[1].Cells, cells[:1]) {
		t.Fatalf("support batch round-trip mismatch: %+v %+v", bhdr, probes)
	}

	entries := []Entry{
		{Point: p, Seq: 3, ArrivedNs: -12, Count: 9, Outlier: true},
		{Point: geom.Point{ID: 1, Coords: []float64{0, 0}}, Seq: 4, Count: 0, Outlier: false},
	}
	eb := EncodeEntries(entries)
	got, err := DecodeEntries(eb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("entries round-trip: %d != %d", len(got), len(entries))
	}
	for i := range entries {
		if !got[i].Point.Equal(entries[i].Point) || got[i].Seq != entries[i].Seq ||
			got[i].ArrivedNs != entries[i].ArrivedNs || got[i].Count != entries[i].Count ||
			got[i].Outlier != entries[i].Outlier {
			t.Fatalf("entry %d mismatch: %+v != %+v", i, got[i], entries[i])
		}
	}

	// Corruption anywhere in a sealed body must be a typed failure.
	for off := 0; off < len(sb); off++ {
		mut := append([]byte(nil), sb...)
		mut[off] ^= 0x40
		if _, _, _, err := DecodeSupport(mut); err == nil {
			t.Fatalf("corrupted byte %d decoded cleanly", off)
		}
	}
}

// TestBlockHashIsFNV pins the inline block hash to FNV-64a over the
// little-endian block coordinates, the placement every deployed ring uses:
// a different hash would move cells between shards.
func TestBlockHashIsFNV(t *testing.T) {
	topo := &Topology{Epoch: 1, Dim: 3, R: 1, K: 1, Block: 4, Shards: []ShardInfo{{Name: "a"}}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		cell := []int64{rng.Int63n(1<<20) - 1<<19, rng.Int63() - 1<<62, -rng.Int63n(9)}
		h := fnv.New64a()
		var buf [8]byte
		for _, c := range cell {
			binary.LittleEndian.PutUint64(buf[:], uint64(floorDiv(c, 4)))
			h.Write(buf[:])
		}
		if got, want := topo.blockHash(cell), h.Sum64(); got != want {
			t.Fatalf("cell %v: block hash %x, want FNV-64a %x", cell, got, want)
		}
	}
}

// TestRunWireRoundTrips round-trips both run wire forms — the script body
// and the run probe on the support path — and holds them to the sealed
// bodies' rule: corruption anywhere is a typed failure.
func TestRunWireRoundTrips(t *testing.T) {
	p := geom.Point{ID: 42, Coords: []float64{1.5, -2.25}}
	ops := []stream.RunOp{
		{Kind: stream.RunEvict, ID: 7},
		{Kind: stream.RunAdmit, Point: p, Seq: 99, Foreign: 3},
		{Kind: stream.RunSupport, Point: p, Cells: [][]int64{{-3, 4}, {0, 0}}, Delta: -1},
	}
	body := EncodeRun(RunHeader{ArrivedNs: -5, Count: len(ops)}, ops)
	hdr, got, err := DecodeRun(body)
	if err != nil || hdr.ArrivedNs != -5 || !reflect.DeepEqual(got, ops) {
		t.Fatalf("script round trip: %+v %+v %v", hdr, got, err)
	}
	shdr, probes, got, err := DecodeSupportBatch(EncodeRunProbe(ops))
	if err != nil || !shdr.Run || probes != nil || !reflect.DeepEqual(got, ops) {
		t.Fatalf("probe round trip: %+v %v %+v %v", shdr, probes, got, err)
	}
	for off := 0; off < len(body); off++ {
		mut := append([]byte(nil), body...)
		mut[off] ^= 0x40
		if _, _, err := DecodeRun(mut); err == nil {
			t.Fatalf("corrupted byte %d decoded cleanly", off)
		}
	}
}
