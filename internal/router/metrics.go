package router

import (
	"time"

	"dod/internal/obs"
)

// routerMetrics are the dod_route_* instruments: the router's own request
// traffic, its shard call fan-out (with retry visibility — the first sign
// of a struggling shard), eviction/drain churn, tenant-level rejections,
// how long each ingest batch holds the global window lock, and the RPCs
// of each wave of the run protocol; per-request latency and, per run, the
// time each stage of the run protocol takes.
type routerMetrics struct {
	ingestReqs   *obs.Counter
	scoreReqs    *obs.Counter
	ingestLines  *obs.Counter
	scoreLines   *obs.Counter
	lineErrors   *obs.Counter
	evictions    *obs.Counter
	drains       *obs.Counter
	rateLimited  *obs.Counter
	quotaDenied  *obs.Counter
	shardCalls   *obs.Counter
	shardRetries *obs.Counter
	shardErrors  *obs.Counter
	supportRPCs  *obs.Counter
	probeFails   *obs.Counter
	failovers    *obs.Counter
	promotes     *obs.Counter
	replicaLost  *obs.Counter
	forcedLoss   *obs.Counter
	lockHold     *obs.Histogram
	waveRPCs     map[string]*obs.Counter // by wave: "1", "2"
	ingestTime   *obs.Histogram
	scoreTime    *obs.Histogram
	stageTime    runStageTimes
}

// runStageTimes are the dod_route_stage_seconds histograms, each observed
// once per settled run: staging its ops under rt.mu, wave one (resolving
// the admissions' neighbourhoods and the probe RPCs), the pairwise pass,
// wave two (scripts and their RPCs), and committing to the router's
// window.
type runStageTimes struct {
	stage, wave1, pairwise, wave2, commit *obs.Histogram
}

func newRouterMetrics(reg *obs.Registry) *routerMetrics {
	return &routerMetrics{
		ingestReqs:   reg.Counter("dod_route_requests_total", "router batch requests", obs.L("endpoint", "ingest")),
		scoreReqs:    reg.Counter("dod_route_requests_total", "router batch requests", obs.L("endpoint", "score")),
		ingestLines:  reg.Counter("dod_route_lines_total", "NDJSON lines routed", obs.L("endpoint", "ingest")),
		scoreLines:   reg.Counter("dod_route_lines_total", "NDJSON lines routed", obs.L("endpoint", "score")),
		lineErrors:   reg.Counter("dod_route_line_errors_total", "lines answered with a per-line error"),
		evictions:    reg.Counter("dod_route_evictions_total", "evictions commanded across shards"),
		drains:       reg.Counter("dod_route_drains_total", "shard drain/handoff operations completed"),
		rateLimited:  reg.Counter("dod_route_rate_limited_total", "requests shed by the per-tenant token bucket"),
		quotaDenied:  reg.Counter("dod_route_quota_denied_total", "ingest batches denied by a tenant lifetime quota"),
		shardCalls:   reg.Counter("dod_route_shard_calls_total", "HTTP calls issued to shards"),
		shardRetries: reg.Counter("dod_route_shard_retries_total", "shard calls that needed a retry"),
		shardErrors:  reg.Counter("dod_route_shard_errors_total", "shard calls that exhausted retries"),
		supportRPCs:  reg.Counter("dod_support_rpc_total", "boundary support round trips issued over the wire"),
		probeFails:   reg.Counter("dod_route_probe_failures_total", "failed shard health probes"),
		failovers:    reg.Counter("dod_route_failovers_total", "automatic drain-on-unhealthy failovers"),
		promotes:     reg.Counter("dod_promote_total", "standby promotions committed"),
		replicaLost:  reg.Counter("dod_replica_lost_total", "ops known lost to replication lag at promotion decisions"),
		forcedLoss:   reg.Counter("dod_route_forced_loss_total", "window entries dropped by forced drains"),
		lockHold:     reg.Histogram("dod_route_lock_hold_seconds", "time one ingest batch holds the router's global window lock", nil),
		waveRPCs: map[string]*obs.Counter{
			"1": reg.Counter("dod_route_wave_rpcs_total", "run protocol shard RPCs by wave", obs.L("wave", "1")),
			"2": reg.Counter("dod_route_wave_rpcs_total", "run protocol shard RPCs by wave", obs.L("wave", "2")),
		},
		ingestTime: reg.Histogram("dod_route_request_seconds", requestHelp, nil, obs.L("endpoint", "ingest")),
		scoreTime:  reg.Histogram("dod_route_request_seconds", requestHelp, nil, obs.L("endpoint", "score")),
		stageTime: runStageTimes{
			stage:    reg.Histogram("dod_route_stage_seconds", stageHelp, nil, obs.L("stage", "stage")),
			wave1:    reg.Histogram("dod_route_stage_seconds", stageHelp, nil, obs.L("stage", "wave1")),
			pairwise: reg.Histogram("dod_route_stage_seconds", stageHelp, nil, obs.L("stage", "pairwise")),
			wave2:    reg.Histogram("dod_route_stage_seconds", stageHelp, nil, obs.L("stage", "wave2")),
			commit:   reg.Histogram("dod_route_stage_seconds", stageHelp, nil, obs.L("stage", "commit")),
		},
	}
}

const (
	requestHelp = "router request latency, from handler entry to the response written"
	stageHelp   = "time one ingest run spends in each stage of the run protocol"
)

// since observes the seconds elapsed from start in h and returns the
// current time, the next stage's start.
func since(h *obs.Histogram, start time.Time) time.Time {
	now := time.Now()
	h.Observe(now.Sub(start).Seconds())
	return now
}
