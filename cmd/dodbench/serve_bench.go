package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"dod/internal/geom"
	"dod/internal/obs"
	"dod/internal/retry"
	"dod/internal/router"
	"dod/internal/serve"
	"dod/internal/stream"
	"dod/internal/synth"
)

// The serve section measures the NDJSON serving tier end to end over
// loopback HTTP: a single-process dodserve and a router fronting three
// shard servers, each in its "fast" wiring (wirejson codec, pooled
// buffers, run-protocol shard RPCs) and its "legacy" wiring (encoding/json,
// per-point shard RPCs) on the same build, each with a window that never
// fills and with an evicting window (capacity n/4, filled before timing,
// so every timed ingest evicts — the state a serving window spends its
// life in). The two wirings answer byte-identical streams — the section
// records that check alongside the throughput ratios, so a committed
// baseline documents both the speedup and that it cost nothing in
// behavior.

const supportRPCHelp = "boundary support round trips issued over the wire"

// serveRecord is one (tier, wiring) measurement.
type serveRecord struct {
	Tier            string  `json:"tier"` // "single" | "sharded"
	Mode            string  `json:"mode"` // "fast" | "legacy"
	Capacity        int     `json:"capacity"`
	Evicting        bool    `json:"evicting"` // window filled before timing; every timed ingest evicts
	Lines           int     `json:"lines"`    // timed ingest lines
	BatchLines      int     `json:"batch_lines"`
	IngestPtsPerSec float64 `json:"ingest_pts_per_sec"`
	ScorePtsPerSec  float64 `json:"score_pts_per_sec"`
	// IngestAllocsPerLine is the whole-process allocation count per ingested
	// line across the loopback exchange — client, transport and server —
	// so the server-side fast path must hold ~0 for the number to approach
	// the client-side floor.
	IngestAllocsPerLine float64 `json:"ingest_allocs_per_line"`
	// SupportRPCsPer1k counts boundary support round trips per 1000 timed
	// ingested points, summed across the router and every shard (sharded
	// tier only).
	SupportRPCsPer1k float64 `json:"support_rpcs_per_1k,omitempty"`
	// ScoreSupportRPCsPer1k counts the same round trips per 1000 scored
	// points (sharded tier only).
	ScoreSupportRPCsPer1k float64 `json:"score_support_rpcs_per_1k,omitempty"`
}

// serveSection is the benchFile's serving-tier section.
type serveSection struct {
	Shards               int           `json:"shards"`
	Records              []serveRecord `json:"records"`
	SingleIngestSpeedup  float64       `json:"single_ingest_speedup"`
	ShardedIngestSpeedup float64       `json:"sharded_ingest_speedup"`
	SupportRPCReduction  float64       `json:"support_rpc_reduction"`
	// The same ratios on the evicting window.
	EvictingSingleIngestSpeedup  float64 `json:"evicting_single_ingest_speedup"`
	EvictingShardedIngestSpeedup float64 `json:"evicting_sharded_ingest_speedup"`
	EvictingSupportRPCReduction  float64 `json:"evicting_support_rpc_reduction"`
	// ResponsesMatch is true when the fast and legacy wirings answered
	// byte-identical ingest and score streams on both tiers and both
	// windows.
	ResponsesMatch bool `json:"responses_match"`
}

// serveBenchPoints generates the bench stream: the same clustered synthetic
// geography the kernel benchmarks use, 2-D, IDs unique from 0.
func serveBenchPoints(n int) []geom.Point {
	return synth.Segment(synth.Massachusetts, n, 3)
}

// ndjsonBatches renders points into canonical NDJSON request bodies of
// batchLines lines each — canonical so the fast parser takes its fast path,
// exactly as a well-formed client would produce.
func ndjsonBatches(pts []geom.Point, batchLines int) [][]byte {
	var batches [][]byte
	var buf []byte
	for i, p := range pts {
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendUint(buf, p.ID, 10)
		buf = append(buf, `,"coords":[`...)
		for d, c := range p.Coords {
			if d > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, c, 'g', -1, 64)
		}
		buf = append(buf, "]}\n"...)
		if (i+1)%batchLines == 0 || i == len(pts)-1 {
			batches = append(batches, buf)
			buf = nil
		}
	}
	return batches
}

// postAll streams every batch to url, folding each response into sum and
// returning elapsed wall time and the whole-process allocation delta.
func postAll(url string, batches [][]byte, sum *fnv64Sum) (time.Duration, uint64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, body := range batches {
		resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			return 0, 0, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, 0, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
		}
		sum.add(raw)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs, nil
}

// fnv64Sum folds response streams into one digest for cross-mode identity
// checks without retaining megabytes of NDJSON.
type fnv64Sum struct{ h uint64 }

func newSum() *fnv64Sum { return &fnv64Sum{} }

func (s *fnv64Sum) add(b []byte) {
	h := fnv.New64a()
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(s.h >> (8 * i))
	}
	h.Write(seed[:]) //nolint:errcheck
	h.Write(b)       //nolint:errcheck
	s.h = h.Sum64()
}

// serveCell is one measurement: the stream, the request size and the
// window capacity. A capacity of at most len(pts) makes the cell evicting:
// the first capacity points fill the window untimed (their responses still
// count toward the stream digest) and the rest are timed.
type serveCell struct {
	pts        []geom.Point
	batchLines int
	capacity   int
	legacy     bool
}

func (c serveCell) evicting() bool { return c.capacity <= len(c.pts) }

// windowCapacity is the window bound a cell configures.
func (c serveCell) windowCapacity() int {
	if c.evicting() {
		return c.capacity
	}
	return len(c.pts) + 1
}

// run ingests the cell's stream into url, then scores the whole stream
// against the final window, and returns the record with digests of the
// ingest and score streams. between, if set, is called after the untimed
// fill, after the timed ingest and after scoring (support RPC accounting).
func (c serveCell) run(url, tier string, between func()) (serveRecord, uint64, uint64, error) {
	ingestSum, scoreSum := newSum(), newSum()
	timed := c.pts
	if c.evicting() {
		if _, _, err := postAll(url+"/v1/ingest", ndjsonBatches(c.pts[:c.capacity], c.batchLines), ingestSum); err != nil {
			return serveRecord{}, 0, 0, err
		}
		timed = c.pts[c.capacity:]
	}
	if between != nil {
		between()
	}
	ingestWall, mallocs, err := postAll(url+"/v1/ingest", ndjsonBatches(timed, c.batchLines), ingestSum)
	if err != nil {
		return serveRecord{}, 0, 0, err
	}
	if between != nil {
		between()
	}
	scoreWall, _, err := postAll(url+"/v1/score", ndjsonBatches(c.pts, c.batchLines), scoreSum)
	if err != nil {
		return serveRecord{}, 0, 0, err
	}
	if between != nil {
		between()
	}
	mode := "fast"
	if c.legacy {
		mode = "legacy"
	}
	n := float64(len(timed))
	return serveRecord{
		Tier: tier, Mode: mode, Capacity: c.windowCapacity(), Evicting: c.evicting(),
		Lines: len(timed), BatchLines: c.batchLines,
		IngestPtsPerSec:     n / ingestWall.Seconds(),
		ScorePtsPerSec:      float64(len(c.pts)) / scoreWall.Seconds(),
		IngestAllocsPerLine: float64(mallocs) / n,
	}, ingestSum.h, scoreSum.h, nil
}

// measureServeSingle benchmarks one cell of the single-process tier.
func measureServeSingle(c serveCell) (serveRecord, uint64, uint64, error) {
	srv, err := serve.New(serve.Config{
		Stream:     stream.Config{R: jsonParams.R, K: jsonParams.K, Dim: 2, Capacity: c.windowCapacity()},
		LegacyWire: c.legacy,
	})
	if err != nil {
		return serveRecord{}, 0, 0, err
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	return c.run(hs.URL, "single", nil)
}

// measureServeSharded benchmarks one cell of the router + shards tier.
func measureServeSharded(c serveCell, shards int) (serveRecord, uint64, uint64, error) {
	var infos []router.ShardInfo
	var regs []*obs.Registry
	var servers []*httptest.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 0; i < shards; i++ {
		reg := obs.NewRegistry()
		ss, err := serve.NewShard(serve.ShardServerConfig{
			Name: fmt.Sprintf("s%d", i), R: jsonParams.R, K: jsonParams.K, Dim: 2,
			Obs: reg, Retry: retry.Policy{Base: time.Millisecond},
		})
		if err != nil {
			return serveRecord{}, 0, 0, err
		}
		hs := httptest.NewServer(ss.Handler())
		servers = append(servers, hs)
		regs = append(regs, reg)
		infos = append(infos, router.ShardInfo{Name: fmt.Sprintf("s%d", i), URL: hs.URL})
	}
	routerReg := obs.NewRegistry()
	rt, err := router.New(router.Config{
		R: jsonParams.R, K: jsonParams.K, Dim: 2, Capacity: c.windowCapacity(),
		Shards: infos, Obs: routerReg,
		Retry:      retry.Policy{Base: time.Millisecond},
		LegacyWire: c.legacy, NoCoalesce: c.legacy,
	})
	if err != nil {
		return serveRecord{}, 0, 0, err
	}
	if err := rt.Start(context.Background()); err != nil {
		return serveRecord{}, 0, 0, err
	}
	defer rt.Close()
	hs := httptest.NewServer(rt.Handler())
	servers = append(servers, hs)
	regs = append(regs, routerReg)

	var rpcs []int64
	rec, ih, sh, err := c.run(hs.URL, "sharded", func() {
		var total int64
		for _, reg := range regs {
			total += reg.Counter("dod_support_rpc_total", supportRPCHelp).Value()
		}
		rpcs = append(rpcs, total)
	})
	if err == nil {
		rec.SupportRPCsPer1k = float64(rpcs[1]-rpcs[0]) / (float64(rec.Lines) / 1000)
		rec.ScoreSupportRPCsPer1k = float64(rpcs[2]-rpcs[1]) / (float64(len(c.pts)) / 1000)
	}
	return rec, ih, sh, err
}

// servePair measures one cell in the fast and the legacy wiring and
// reports whether they answered byte-identical streams.
func servePair(c serveCell, measure func(serveCell) (serveRecord, uint64, uint64, error)) (fast, legacy serveRecord, match bool, err error) {
	fast, fi, fs, err := measure(c)
	if err != nil {
		return fast, legacy, false, err
	}
	c.legacy = true
	legacy, li, ls, err := measure(c)
	return fast, legacy, fi == li && fs == ls, err
}

// measureServe runs every (tier, window, wiring) cell and derives the
// ratios.
func measureServe(cfg benchRunConfig) (serveSection, error) {
	const (
		batchLines  = 1000
		serveShards = 3
	)
	singleLines := cfg.points
	shardedLines := cfg.points / 4
	if shardedLines < 2000 {
		shardedLines = 2000
	}
	singlePts := serveBenchPoints(singleLines)
	shardedPts := serveBenchPoints(shardedLines)
	sharded := func(c serveCell) (serveRecord, uint64, uint64, error) { return measureServeSharded(c, serveShards) }

	sec := serveSection{Shards: serveShards, ResponsesMatch: true}
	for _, evicting := range []bool{false, true} {
		single := serveCell{pts: singlePts, batchLines: batchLines, capacity: len(singlePts) + 1}
		shard := serveCell{pts: shardedPts, batchLines: batchLines, capacity: len(shardedPts) + 1}
		if evicting {
			single.capacity, shard.capacity = len(singlePts)/4, len(shardedPts)/4
		}
		singleFast, singleLegacy, ok1, err := servePair(single, measureServeSingle)
		if err != nil {
			return sec, err
		}
		shardFast, shardLegacy, ok2, err := servePair(shard, sharded)
		if err != nil {
			return sec, err
		}
		sec.ResponsesMatch = sec.ResponsesMatch && ok1 && ok2
		sec.Records = append(sec.Records, singleFast, singleLegacy, shardFast, shardLegacy)
		singleRatio := singleFast.IngestPtsPerSec / singleLegacy.IngestPtsPerSec
		shardRatio := shardFast.IngestPtsPerSec / shardLegacy.IngestPtsPerSec
		rpcRatio := 0.0
		if shardFast.SupportRPCsPer1k > 0 {
			rpcRatio = shardLegacy.SupportRPCsPer1k / shardFast.SupportRPCsPer1k
		}
		if evicting {
			sec.EvictingSingleIngestSpeedup, sec.EvictingShardedIngestSpeedup, sec.EvictingSupportRPCReduction = singleRatio, shardRatio, rpcRatio
		} else {
			sec.SingleIngestSpeedup, sec.ShardedIngestSpeedup, sec.SupportRPCReduction = singleRatio, shardRatio, rpcRatio
		}
	}
	return sec, nil
}

// runServeCheck is the CI gate for the serving tiers. On the
// single-process tier the fast and legacy wirings must answer
// byte-identical streams, the fast wiring must ingest at least minSpeedup
// times faster, and (when maxAllocs > 0) the loopback exchange must stay
// under maxAllocs allocations per line. On the sharded tier with an
// evicting window (capacity n/4, filled before timing) the run protocol
// must answer the bytes of the per-point NoCoalesce/LegacyWire wiring and,
// when maxRPCs > 0, issue at most maxRPCs support round trips per 1000
// steady-state ingested lines and per 1000 scored lines.
func runServeCheck(n int, minSpeedup, maxAllocs, maxRPCs float64) error {
	pts := serveBenchPoints(n)
	fast, legacy, match, err := servePair(serveCell{pts: pts, batchLines: 1000, capacity: n + 1}, measureServeSingle)
	if err != nil {
		return err
	}
	if !match {
		return fmt.Errorf("servecheck: fast and legacy wire paths answered different streams")
	}
	speedup := fast.IngestPtsPerSec / legacy.IngestPtsPerSec
	fmt.Printf("dodbench: servecheck n=%d fast=%.0f pts/s legacy=%.0f pts/s speedup=%.2f allocs/line=%.2f min=%.2f max-allocs=%.2f\n",
		n, fast.IngestPtsPerSec, legacy.IngestPtsPerSec, speedup, fast.IngestAllocsPerLine, minSpeedup, maxAllocs)
	if minSpeedup > 0 && speedup < minSpeedup {
		return fmt.Errorf("servecheck: fast/legacy ingest ratio %.2f below minimum %.2f", speedup, minSpeedup)
	}
	if maxAllocs > 0 && fast.IngestAllocsPerLine > maxAllocs {
		return fmt.Errorf("servecheck: %.2f allocations per ingested line exceeds maximum %.2f", fast.IngestAllocsPerLine, maxAllocs)
	}

	shardFast, shardLegacy, match, err := servePair(serveCell{pts: pts, batchLines: 500, capacity: n / 4},
		func(c serveCell) (serveRecord, uint64, uint64, error) { return measureServeSharded(c, 3) })
	if err != nil {
		return err
	}
	fmt.Printf("dodbench: servecheck sharded evicting n=%d capacity=%d runs=%.0f pts/s per-point=%.0f pts/s support-rpcs/1k=%.1f (per-point %.1f) score-rpcs/1k=%.1f (per-line %.1f) max-rpcs=%.1f\n",
		n, n/4, shardFast.IngestPtsPerSec, shardLegacy.IngestPtsPerSec, shardFast.SupportRPCsPer1k, shardLegacy.SupportRPCsPer1k,
		shardFast.ScoreSupportRPCsPer1k, shardLegacy.ScoreSupportRPCsPer1k, maxRPCs)
	if !match {
		return fmt.Errorf("servecheck: the sharded run protocol and the per-point wiring answered different streams")
	}
	if maxRPCs > 0 && shardFast.SupportRPCsPer1k > maxRPCs {
		return fmt.Errorf("servecheck: %.1f steady-state support RPCs per 1k ingested lines exceeds maximum %.1f", shardFast.SupportRPCsPer1k, maxRPCs)
	}
	if maxRPCs > 0 && shardFast.ScoreSupportRPCsPer1k > maxRPCs {
		return fmt.Errorf("servecheck: %.1f support RPCs per 1k scored lines exceeds maximum %.1f", shardFast.ScoreSupportRPCsPer1k, maxRPCs)
	}
	return nil
}
