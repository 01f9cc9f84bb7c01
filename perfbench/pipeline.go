package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"dod"
	"dod/internal/core"
	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/mapreduce"
	"dod/internal/plan"
	"dod/internal/sample"
	"dod/internal/synth"
)

// pipelineSpec is one batch-pipeline workload: a dataset generator, the
// dod.Config every job runs with, and the centralized detector whose
// answer every job must reproduce. A run draws its datasets from its seed
// and cycles its jobs through them, so that one dataset's quirks weigh less
// in the run's figures.
type pipelineSpec struct {
	name      string
	gen       func(seed int64) []geom.Point
	datasets  int
	cfg       dod.Config
	reference dod.Detector
}

// geoPipeline: 100k 2-D points in the US level of the hierarchical
// geography (sparse, medium and dense segments with empty space between),
// where DMT splits the domain into many partitions and picks both
// Cell-Based and Nested-Loop; plan, map+shuffle and reduce each take about
// a third of a job. Its per-dataset work varies little, and its Cell-Based
// reference is expensive, so a run uses one dataset.
var geoPipeline = pipelineSpec{
	name:      "pipeline-geo",
	gen:       func(seed int64) []geom.Point { return synth.Hierarchical(synth.LevelUS, 12500, seed) },
	datasets:  1,
	cfg:       dod.Config{R: 5, K: 4, SampleRate: 0.05, Seed: 1},
	reference: dod.CellBased,
}

// highDimPipeline: 16k points on a 32-dimensional sphere with planted
// outliers, with the two-reducer, two-partition configuration cmd/dodbench
// uses for it; reduce (the proximity-graph kernel) is nearly the whole job
// and planning is under 1%.
// The kernel's work differs by about a quarter between datasets, so a run
// cycles through three.
var highDimPipeline = pipelineSpec{
	name: "pipeline-highdim",
	gen: func(seed int64) []geom.Point {
		pts, _ := synth.HighDimUniform(16000, 32, 4, 0.005, seed)
		return pts
	},
	datasets: 3,
	cfg: dod.Config{
		R: 4, K: 4, SampleRate: 1, NumReducers: 2, NumPartitions: 2, Seed: 1,
		Candidates: []dod.Detector{dod.NestedLoop, dod.KDTree, dod.ProxGraph},
	},
	reference: dod.KDTree,
}

// setupReps is how many times a run builds each dataset's input; setup_s
// is the median. A build takes about 10 ms, so many are cheap.
const setupReps = 15

// dataset is one generated input with its reference answer.
type dataset struct {
	pts   []geom.Point
	input *core.Input
	want  []uint64
}

// pipelineRun is one run's state.
type pipelineRun struct {
	spec pipelineSpec
	sets []*dataset
	next int // jobs run so far; picks the next dataset
	out  *outcome
	heap heapGoal
}

func runPipeline(spec pipelineSpec, rc runConfig) (*outcome, error) {
	pr := &pipelineRun{spec: spec, out: &outcome{metrics: map[string]float64{}}}
	var setup samples
	for d := 0; d < spec.datasets; d++ {
		ds := &dataset{pts: spec.gen(rc.seed*int64(spec.datasets) + int64(d))}
		fmt.Fprintf(rc.log, "perfbench: %s: dataset %d: %d points, computing the %s reference\n", spec.name, d, len(ds.pts), spec.reference)
		var err error
		ds.want, err = dod.DetectCentralized(ds.pts, spec.reference, spec.cfg.R, spec.cfg.K)
		if err != nil {
			return nil, err
		}
		// Set-up is building the MapReduce input the pipeline reads.
		for i := 0; i < setupReps; i++ {
			// Every build starts from a heap returned to the OS, as in a
			// fresh process. After a plain runtime.GC() a build reused
			// freed pages or faulted in new ones depending on the
			// scavenger's progress, and the median moved 2x between runs.
			debug.FreeOSMemory()
			start := time.Now()
			ds.input, err = core.InputFromPoints(ds.pts, spec.cfg.PointsPerSplit)
			setup = append(setup, time.Since(start))
			if err != nil {
				return nil, err
			}
		}
		pr.sets = append(pr.sets, ds)
	}

	// One warm-up job, checked but not counted.
	if _, _, ok, err := pr.job(nil, "warmup"); err != nil {
		return nil, err
	} else if !ok {
		pr.out.fail("warm-up job: outliers differ from the reference")
	}
	pr.next = 0
	pr.heap.reset()
	runtime.GC() // start timing without set-up garbage

	if !rc.trace {
		jobs := pr.jobsFor(nil, rc.seconds, 1, "job", nil)
		pr.out.metrics["setup_s"] = setup.median().Seconds()
		pr.endToEnd(jobs)
		pr.out.notes = append(pr.out.notes, fmt.Sprintf("setup: %d builds of core.Input", len(setup)))
		return pr.out, nil
	}
	return pr.out, pr.traced(rc)
}

// job runs one dod.Detect job on the next dataset, records it as a span
// when rec is on, and reports whether its outliers equal the reference.
func (pr *pipelineRun) job(rec *recorder, name string) (time.Duration, *dod.Result, bool, error) {
	ds := pr.sets[pr.next%len(pr.sets)]
	pr.next++
	var res *dod.Result
	var err error
	d := rec.timed(name, "", nil, func() { res, err = dod.Detect(ds.pts, pr.spec.cfg) })
	pr.heap.sample()
	if err != nil {
		return 0, nil, false, fmt.Errorf("dod.Detect: %w", err)
	}
	return d, res, slices.Equal(res.OutlierIDs, ds.want), nil
}

// jobsFor runs counted jobs until seconds have passed (at least minJobs),
// a whole number of cycles through the datasets, and returns their
// durations; report receives each job's dataset index and result.
func (pr *pipelineRun) jobsFor(rec *recorder, seconds float64, minJobs int, name string, report func(int, *dod.Result)) samples {
	var out samples
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out) < minJobs || pr.next%len(pr.sets) != 0 || time.Now().Before(deadline) {
		ds := pr.next % len(pr.sets)
		d, res, ok, err := pr.job(rec, name)
		pr.out.attempted++
		if err != nil {
			pr.out.failed++
			pr.out.fail("%s: %v", name, err)
			continue
		}
		if !ok {
			pr.out.failed++
			pr.out.fail("%s on dataset %d: outliers differ from the reference", name, ds)
		}
		out = append(out, d)
		if report != nil {
			report(ds, res)
		}
	}
	return out
}

func (pr *pipelineRun) endToEnd(jobs samples) {
	m := pr.out.metrics
	tail, pct, _ := jobs.tail()
	points := 0
	for i := range jobs {
		points += len(pr.sets[i%len(pr.sets)].pts)
	}
	m["op_ms_p50"] = ms(jobs.median())
	m["op_ms_tail"] = ms(tail)
	m["pts_per_s"] = float64(points) / jobs.total().Seconds()
	m["heap_goal_mb"] = pr.heap.mb()
	pr.out.notes = append(pr.out.notes, fmt.Sprintf("jobs: %d over %d dataset(s) (op_ms_tail is p%.1f)", len(jobs), len(pr.sets), pct))
}

// traced is the per-layer run. It measures untraced jobs first (the
// comparison for tracing overhead), then traced jobs, then times each
// layer's public entry point on the first dataset, then reruns jobs at
// GOMAXPROCS=1.
func (pr *pipelineRun) traced(rc runConfig) error {
	m := pr.out.metrics
	rec := &recorder{}
	untraced := pr.jobsFor(nil, 0.25*rc.seconds, 2, "job", nil)

	rec.on.Store(true)
	var mapS, shuffleS, reduceS, shuffleBytes, supportRecs, imbalance []float64
	var jobPlan *plan.Plan
	tracedJobs := pr.jobsFor(rec, 0.35*rc.seconds, 2, "dod.Detect", func(ds int, res *dod.Result) {
		rep := res.Report
		if ds == 0 {
			jobPlan = rep.Plan
		}
		mapS = append(mapS, rep.Wall.Map.Seconds())
		shuffleS = append(shuffleS, rep.Wall.Shuffle.Seconds())
		reduceS = append(reduceS, rep.Wall.Reduce.Seconds())
		shuffleBytes = append(shuffleBytes, float64(rep.ShuffleBytes))
		supportRecs = append(supportRecs, float64(rep.SupportRecords))
		imbalance = append(imbalance, rep.ReduceImbalance)
	})
	jobP50 := tracedJobs.median()
	m["trace.overhead_ms"] = ms(jobP50 - untraced.median())
	m["mapreduce.map_s"] = medianFloat(mapS)
	m["mapreduce.shuffle_s"] = medianFloat(shuffleS)
	m["mapreduce.reduce_s"] = medianFloat(reduceS)
	m["mapreduce.shuffle_bytes"] = medianFloat(shuffleBytes)
	m["mapreduce.support_records"] = medianFloat(supportRecs)
	m["mapreduce.reduce_imbalance"] = medianFloat(imbalance)
	if jobPlan == nil {
		return fmt.Errorf("no traced job completed")
	}

	if err := pr.layers(rec, pr.sets[0], jobPlan, jobP50, 0.2*rc.seconds); err != nil {
		return err
	}

	prev := runtime.GOMAXPROCS(1)
	oneProc := pr.jobsFor(rec, 0.2*rc.seconds, 2, "dod.Detect.1proc", nil)
	runtime.GOMAXPROCS(prev)
	m["par.job_s_1proc"] = oneProc.median().Seconds()
	m["par.speedup"] = ratio(oneProc.median().Seconds(), jobP50.Seconds())

	path, err := writeSpans(rc.outDir, spanFileName(pr.spec.name, rc.seed), rec.snapshot())
	if err != nil {
		return err
	}
	pr.out.notes = append(pr.out.notes,
		fmt.Sprintf("jobs over %d dataset(s): %d untraced, %d traced, %d at GOMAXPROCS=1 (par.speedup = par.job_s_1proc / traced job p50 at GOMAXPROCS=%d)",
			len(pr.sets), len(untraced), len(tracedJobs), len(oneProc), prev),
		"spans: "+path)
	return nil
}

// layers times the preprocessing job (sample.RunJobContext), the planner
// (plan.DMT.Build on that histogram) and each planned partition's detector
// (detect.DetectSet on the core and support set plan.Locate assigns it),
// repeating the cheap stages for at least seconds.
func (pr *pipelineRun) layers(rec *recorder, ds *dataset, jobPlan *plan.Plan, jobP50 time.Duration, seconds float64) error {
	m := pr.out.metrics
	cfg := pr.spec.cfg
	params := detect.Params{R: cfg.R, K: cfg.K}
	sCfg := sample.Config{
		Domain:        ds.input.Domain,
		BucketsPerDim: bucketsPerDim(len(ds.pts)),
		Rate:          cfg.SampleRate,
		Seed:          cfg.Seed,
	}
	opts := plan.Options{
		NumReducers:   cfg.NumReducers,
		NumPartitions: cfg.NumPartitions,
		Params:        params,
		Detector:      dod.CellBased,
		Candidates:    cfg.Candidates,
	}
	if opts.NumReducers < 1 {
		opts.NumReducers = 8
	}
	var sampleS, planS []float64
	var sampled int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(planS) < 3 || time.Now().Before(deadline) {
		var hist *sample.Histogram
		var res *mapreduce.Result
		var err error
		d := rec.timed("sample.RunJobContext", "", nil, func() {
			hist, res, err = sample.RunJobContext(context.Background(), sCfg, mapreduce.Config{Seed: cfg.Seed + 1}, ds.input.Splits)
		})
		if err != nil {
			return fmt.Errorf("sample.RunJobContext: %w", err)
		}
		sampleS = append(sampleS, d.Seconds())
		sampled = res.Metrics.Counter("sample.sampled")
		var pl *plan.Plan
		d = rec.timed("plan.Build", "", map[string]string{"planner": plan.DMT.Name()}, func() { pl, err = plan.DMT.Build(hist, opts) })
		if err != nil {
			return fmt.Errorf("plan.DMT.Build: %w", err)
		}
		planS = append(planS, d.Seconds())
		if !samePlan(pl, jobPlan) {
			pr.out.fail("plan.DMT.Build on the replayed sample differs from the job's plan (%d vs %d partitions)", len(pl.Partitions), len(jobPlan.Partitions))
		}
	}
	m["sample.busy_s"] = medianFloat(sampleS)
	m["sample.sampled"] = float64(sampled)
	m["plan.busy_s"] = medianFloat(planS)
	m["plan.share"] = ratio(medianFloat(planS), jobP50.Seconds())
	m["plan.partitions"] = float64(len(jobPlan.Partitions))
	for _, p := range jobPlan.Partitions {
		m["plan.picks."+strings.ToLower(p.Algo.String())]++
	}

	// Rebuild each partition's core and support set exactly as the map
	// phase routes points, then time its detector alone.
	cores := make([]*geom.PointSet, len(jobPlan.Partitions))
	supps := make([]*geom.PointSet, len(jobPlan.Partitions))
	for i := range cores {
		cores[i] = geom.NewPointSet(ds.input.Dim, 0)
		supps[i] = geom.NewPointSet(ds.input.Dim, 0)
	}
	for _, p := range ds.pts {
		c, sup := jobPlan.Locate(p)
		cores[c].Append(p)
		for _, s := range sup {
			supps[s].Append(p)
		}
	}
	var busy, maxPart time.Duration
	var comps int64
	worstErr := 1.0
	var got []uint64
	for i, p := range jobPlan.Partitions {
		nCore := cores[i].Len()
		if nCore == 0 {
			continue
		}
		all := cores[i]
		all.AppendSet(supps[i])
		var res detect.Result
		d := rec.timed("detect.DetectSet", "", map[string]string{
			"partition": strconv.Itoa(p.ID), "algo": p.Algo.String(),
			"core": strconv.Itoa(nCore), "support": strconv.Itoa(supps[i].Len()),
		}, func() {
			res = detect.DetectSet(detect.New(p.Algo, cfg.Seed+int64(i)), all, nCore, params)
		})
		busy += d
		if d > maxPart {
			maxPart = d
		}
		comps += res.Stats.DistComps
		got = append(got, res.OutlierIDs...)
		if est, meas := p.EstCost, float64(res.Stats.DistComps); est > 0 && meas > 0 {
			worstErr = math.Max(worstErr, math.Max(est/meas, meas/est))
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, ds.want) {
		pr.out.fail("per-partition detect.DetectSet found %d outliers, reference has %d", len(got), len(ds.want))
	}
	m["detect.busy_s"] = busy.Seconds()
	m["detect.max_partition_s"] = maxPart.Seconds()
	m["detect.dist_comps"] = float64(comps)
	m["plan.cost_err_max"] = worstErr
	return nil
}

// bucketsPerDim is the mini-bucket resolution dod.Detect picks for n points
// when Config.BucketsPerDim is unset.
func bucketsPerDim(n int) int {
	b := int(math.Sqrt(float64(n) / 25))
	return min(max(b, 8), 40)
}

func samePlan(a, b *plan.Plan) bool {
	if len(a.Partitions) != len(b.Partitions) {
		return false
	}
	for i := range a.Partitions {
		pa, pb := a.Partitions[i], b.Partitions[i]
		if pa.Algo != pb.Algo || pa.Reducer != pb.Reducer || !pa.Rect.Equal(pb.Rect) {
			return false
		}
	}
	return true
}

// heapGoal records the garbage collector's heap goal after each operation:
// the size the heap may reach before the running collection cycle ends,
// twice the heap live at the last marking under the default GOGC. Its
// median over a run is the run's figure. Maxima were not steady: HeapInuse
// read at the same moments lands at a random point of the cycle, and the
// goal jumps in the runs where a marking happens to fall at a job's
// largest live heap, so either maximum swung by 0.15 of its median
// between pipeline-highdim runs.
type heapGoal struct {
	goals []float64
	read  []metrics.Sample
}

func (h *heapGoal) reset() { h.goals = h.goals[:0] }

func (h *heapGoal) sample() {
	if h.read == nil {
		h.read = []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	}
	metrics.Read(h.read)
	h.goals = append(h.goals, float64(h.read[0].Value.Uint64()))
}

func (h *heapGoal) mb() float64 { return medianFloat(h.goals) / (1 << 20) }
