package router_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dod/internal/fault"
	"dod/internal/obs"
	"dod/internal/retry"
	"dod/internal/router"
)

// shardFaults sends each router→shard call, once armed, through a fault
// transport whose sites carry the shard's name ("route.<shard><path>"),
// so a rule can fail one shard and leave the others healthy.
type shardFaults struct {
	armed  atomic.Bool
	byHost map[string]http.RoundTripper
}

func (f *shardFaults) RoundTrip(req *http.Request) (*http.Response, error) {
	if t := f.byHost[req.URL.Host]; t != nil && f.armed.Load() {
		return t.RoundTrip(req)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// injectedCall masks the per-site call counter in injected fault errors:
// one batched RPC and one RPC per line reach a failing site a different
// number of times, and nothing else in an error line may differ.
var injectedCall = regexp.MustCompile(`call \d+`)

// TestScoreDegradedMatchesPerLine holds the one-wave coalesced score path
// to the per-line protocol when shards are down: with one shard's breaker
// open (skipped, the line degrades) and one shard failing every support
// call (the lines that reach it error), the coalesced /v1/score answers
// what a NoCoalesce router over the same shards answers, byte for byte.
// Each request costs at most one support RPC per shard.
func TestScoreDegradedMatchesPerLine(t *testing.T) {
	for _, mode := range []string{"injected", "killed"} {
		t.Run(mode, func(t *testing.T) {
			in := fault.New(fault.Config{Seed: 1, Rules: []fault.Rule{{Site: "route.s2" + router.PathSupport, PError: 1}}})
			faults := &shardFaults{byHost: map[string]http.RoundTripper{}}
			opts := func(cfg *router.Config) {
				for _, s := range cfg.Shards {
					u, err := url.Parse(s.URL)
					if err != nil {
						t.Fatal(err)
					}
					faults.byHost[u.Host] = fault.Transport(nil, in, "route."+s.Name)
				}
				cfg.Transport = faults
				cfg.RetryAttempts = 2
				// Failures must not open s2's breaker part way through the
				// per-line protocol, and no probe may close s0's.
				cfg.Breaker = retry.BreakerConfig{Threshold: 1000, Cooldown: time.Hour}
				cfg.ProbeInterval = time.Hour
			}
			c := newCluster(t, clusterOpts{shards: 3, capacity: 200, block: 4, routerOpts: opts})
			c.streamBatches(rand.New(rand.NewSource(11)), 0, 6, 30)

			cfg := router.Config{
				R: testR, K: testK, Dim: testDim, Capacity: 200, Block: 4,
				Shards: c.rt.Topology().Shards, Retry: retry.Policy{Base: time.Millisecond},
				NoCoalesce: true,
			}
			opts(&cfg)
			perLine, err := router.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := perLine.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(perLine.Close)
			perLineSrv := httptest.NewServer(perLine.Handler())
			t.Cleanup(perLineSrv.Close)

			const lines = 200 // several of the per-line protocol's 64-line chunks
			rng := rand.New(rand.NewSource(12))
			var sb strings.Builder
			for i := 0; i < lines; i++ {
				fmt.Fprintf(&sb, `{"id":%d,"coords":[%g,%g]}`+"\n", 5_000_000+i, rng.Float64()*12, rng.Float64()*12)
			}
			body := sb.String()
			rpcs := func() int64 { return c.rt.Registry().Counter("dod_support_rpc_total", "").Value() }
			score := func(base string) []byte {
				t.Helper()
				before := rpcs()
				status, raw := post(t, base+"/v1/score", body)
				if status != http.StatusOK {
					t.Fatalf("score: status %d: %s", status, raw)
				}
				if base == c.rtSrv.URL {
					if n := rpcs() - before; n > 3 {
						t.Fatalf("a %d-line score request issued %d support RPCs over 3 shards", lines, n)
					}
				}
				return injectedCall.ReplaceAll(raw, []byte("call N"))
			}
			if got, want := score(c.rtSrv.URL), score(perLineSrv.URL); !bytes.Equal(got, want) {
				t.Fatalf("healthy score diverged\ncoalesced: %s\nper-line: %s", got, want)
			}

			for _, rt := range []*router.Router{c.rt, perLine} {
				for b := rt.ShardBreaker("s0"); b.State() != retry.BreakerOpen; {
					b.Failure()
				}
			}
			if mode == "killed" {
				c.srvs["s2"].Close()
			} else {
				faults.armed.Store(true)
			}
			got, want := score(c.rtSrv.URL), score(perLineSrv.URL)
			if !bytes.Equal(got, want) {
				t.Fatalf("degraded score diverged\ncoalesced: %s\nper-line: %s", got, want)
			}
			if errs := bytes.Count(got, []byte(`"error"`)); errs == 0 || errs == lines {
				t.Fatalf("%d of %d lines errored: the case needs lines that reach the failing shard and lines that do not\n%s", errs, lines, got)
			}
		})
	}
}

// TestRouterLatencyInstruments pins the router's latency histograms: one
// ingest request that settles as one run and one score request observe
// each request endpoint once and each run stage once, and /metrics
// exports them.
func TestRouterLatencyInstruments(t *testing.T) {
	c := newCluster(t, clusterOpts{shards: 3, capacity: 100, block: 2})
	rng := rand.New(rand.NewSource(4))
	var ingest, score strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&ingest, `{"id":%d,"coords":[%g,%g]}`+"\n", i, rng.Float64()*12, rng.Float64()*12)
		fmt.Fprintf(&score, `{"id":%d,"coords":[%g,%g]}`+"\n", 100+i, rng.Float64()*12, rng.Float64()*12)
	}
	c.both("/v1/ingest", ingest.String(), "ingest")
	c.both("/v1/score", score.String(), "score")
	resp, err := http.Get(c.rtSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	reg := c.rt.Registry()
	check := func(name string, l obs.Label) {
		t.Helper()
		if n := reg.Histogram(name, "", nil, l).Count(); n != 1 {
			t.Errorf("%s{%s=%q}: %d observations, want 1", name, l.Key, l.Value, n)
		}
		if want := fmt.Sprintf(`%s_count{%s=%q} 1`, name, l.Key, l.Value); !bytes.Contains(raw, []byte(want)) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	for _, ep := range []string{"ingest", "score"} {
		check("dod_route_request_seconds", obs.L("endpoint", ep))
	}
	for _, stage := range []string{"stage", "wave1", "pairwise", "wave2", "commit"} {
		check("dod_route_stage_seconds", obs.L("stage", stage))
	}
}
