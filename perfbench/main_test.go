package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"dod/internal/geom"
	"dod/internal/stream"
	"dod/internal/synth"
)

// Small versions of the four workloads: same code paths, inputs small
// enough for a unit test.
var smallWorkloads = map[string]func(runConfig) (*outcome, error){
	"pipeline-geo": func(c runConfig) (*outcome, error) {
		spec := geoPipeline
		spec.gen = func(seed int64) []geom.Point { return synth.Hierarchical(synth.LevelUS, 400, seed) }
		spec.cfg.SampleRate = 0.5
		return runPipeline(spec, c)
	},
	"pipeline-highdim": func(c runConfig) (*outcome, error) {
		spec := highDimPipeline
		spec.gen = func(seed int64) []geom.Point {
			pts, _ := synth.HighDimUniform(600, 32, 4, 0.005, seed)
			return pts
		}
		return runPipeline(spec, c)
	},
	"serve-single": func(c runConfig) (*outcome, error) {
		spec := singleServing
		spec.capacity, spec.batch = 1000, 100
		return runServing(spec, c)
	},
	"serve-sharded": func(c runConfig) (*outcome, error) {
		spec := shardedServing
		spec.capacity, spec.batch = 600, 100
		return runServing(spec, c)
	},
}

// layerMetrics are the per-layer metrics each workload must measure as
// non-zero; the rest of the catalogue may legitimately read 0 there.
var layerMetrics = map[string][]string{
	"pipeline": {
		"sample.busy_s", "sample.sampled", "plan.busy_s", "plan.share", "plan.partitions",
		"plan.cost_err_max", "detect.busy_s", "detect.max_partition_s", "detect.dist_comps",
		"mapreduce.map_s", "mapreduce.reduce_s", "mapreduce.shuffle_bytes",
		"mapreduce.reduce_imbalance", "par.job_s_1proc", "par.speedup",
	},
	"serve": {
		"score_ms_p50", "score_ms_tail", "wire.parse_s", "wire.encode_s",
		"stream.ingest_s", "stream.score_s", "stream.evictions_per_1k", "serve.allocs_per_line",
	},
	"serve-single": {"serve.read_s", "serve.process_s", "serve.write_s", "http.self_s"},
	"serve-sharded": {
		"shard.ingest_batch.calls_per_1k", "shard.ingest_batch.busy_s",
		"shard.evict.calls_per_1k", "shard.evict.busy_s",
		"shard.score.calls_per_1k", "shard.score.busy_s",
		"support.rpcs_per_1k", "router.shard_calls_per_1k", "router.self_s",
	},
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runCLI(t *testing.T, args ...string) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if code != 2 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last stdout line is not the result: %v\n%s", err, stdout.String())
		}
	}
	return code, res, stdout.String() + stderr.String()
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	saved := workloads
	workloads = smallWorkloads
	defer func() { workloads = saved }()
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				code, res, out := runCLI(t, "--workload", name, "--seed", "3", "--seconds", "0.4",
					"--trace", trace, "--out-dir", t.TempDir())
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace == "1" {
					kind := strings.SplitN(name, "-", 2)[0]
					for _, n := range append(layerMetrics[kind], layerMetrics[name]...) {
						if res.Metrics[n].Value <= 0 {
							t.Errorf("per-layer metric %s = %v, want > 0", n, res.Metrics[n].Value)
						}
					}
				}
			})
		}
	}
}

func TestFailedCheckExitsNonZero(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = map[string]func(runConfig) (*outcome, error){
		"pipeline-geo": func(c runConfig) (*outcome, error) {
			pr := &pipelineRun{spec: geoPipeline, out: &outcome{metrics: map[string]float64{}}}
			pr.spec.cfg.SampleRate = 0.5
			pr.sets = []*dataset{{
				pts:  synth.Hierarchical(synth.LevelUS, 200, 1),
				want: []uint64{1}, // not the answer
			}}
			jobs := pr.jobsFor(nil, 0, 1, "job", nil)
			pr.out.metrics["setup_s"] = 1
			pr.endToEnd(jobs)
			return pr.out, nil
		},
	}
	code, res, out := runCLI(t, "--workload", "pipeline-geo", "--seconds", "1")
	if code != 1 || res.Correct || res.Failed != 1 || res.Metrics["ops_ok_frac"].Value != 0 {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-single", "--trace", "2"},
		{"--workload", "serve-single", "--seconds", "0"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestResponseChecks(t *testing.T) {
	want := []stream.Verdict{{ID: 7, Seq: 3, Neighbors: 2, Outlier: true, Evicted: 1}}
	good := `{"id":7,"seq":3,"neighbors":2,"outlier":true,"evicted":1}` + "\n"
	if err := checkVerdicts([]byte(good), want); err != nil {
		t.Fatalf("good verdict rejected: %v", err)
	}
	for _, bad := range []string{
		`{"id":7,"seq":4,"neighbors":2,"outlier":true,"evicted":1}`,
		`{"id":7,"seq":3,"neighbors":2,"outlier":true}`,
		`{"id":7,"seq":3,"outlier":true,"evicted":1}`,
		`{"id":7,"seq":3,"neighbors":2,"outlier":true,"evicted":1,"error":"x"}`,
		good + good,
	} {
		if checkVerdicts([]byte(bad), want) == nil {
			t.Errorf("verdict %q accepted", bad)
		}
	}
	scores := []stream.Score{{ID: 9, Neighbors: 4}}
	if err := checkScores([]byte(`{"id":9,"neighbors":4,"outlier":false}`), scores); err != nil {
		t.Fatalf("good score rejected: %v", err)
	}
	if checkScores([]byte(`{"id":9,"seq":1,"neighbors":4,"outlier":false}`), scores) == nil {
		t.Error("score line with a seq accepted")
	}
}

func TestSpanNestingAndCoverage(t *testing.T) {
	rec := &recorder{}
	rec.on.Store(true)
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	rec.add(span{Name: "client", Start: at(0), End: at(100)})
	rec.add(span{Name: "a", Start: at(10), End: at(40)})
	rec.add(span{Name: "b", Start: at(20), End: at(30)})
	rec.add(span{Name: "c", Start: at(35), End: at(60)})
	spans := rec.snapshot()
	parents := map[string]string{}
	for _, s := range spans {
		if s.Parent >= 0 {
			parents[s.Name] = spans[s.Parent].Name
		}
	}
	if parents["a"] != "client" || parents["b"] != "a" || parents["c"] != "client" {
		t.Errorf("parents %v", parents)
	}
	if got := covered(at(0), at(100), spans[1:]); got != 50*time.Millisecond {
		t.Errorf("covered %v, want 50ms", got)
	}
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names, listed []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	for _, n := range workloadNames() {
		if _, held := heldBack[n]; !held {
			listed = append(listed, n)
		}
	}
	if !slices.Equal(names, listed) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v of which %d are held back", names, workloadNames(), len(heldBack))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d measured", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), benchmark measures %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestTailSlices(t *testing.T) {
	few := make(samples, 15)
	for i := range few {
		few[i] = time.Duration(i+1) * time.Millisecond
	}
	if got, _, k := few.tail(); got != 14*time.Millisecond || k != 1 {
		t.Errorf("15 samples: tail %v over %d slices, want p90, the second largest", got, k)
	}
	few = append(few, make(samples, 6)...) // 21 samples: p90 is the third largest
	if got, _, _ := few.tail(); got != 13*time.Millisecond {
		t.Errorf("21 samples: tail %v, want 13ms", got)
	}
	// 1000 samples of 10 ms with a 200-sample stall of 50 ms in the middle:
	// the stall moves one of five slices, so the tail stays 10 ms.
	s := make(samples, 1000)
	for i := range s {
		s[i] = 10 * time.Millisecond
		if i >= 400 && i < 600 {
			s[i] = 50 * time.Millisecond
		}
	}
	if got, pct, k := s.tail(); got != 10*time.Millisecond || k != 5 || pct != 95 {
		t.Errorf("stalled run: tail %v p%v over %d slices, want 10ms p95 over 5", got, pct, k)
	}
	if got, _, k := s[:300].tail(); got != 10*time.Millisecond || k != 1 {
		t.Errorf("300 samples: tail %v over %d slices, want 10ms over 1", got, k)
	}
}
