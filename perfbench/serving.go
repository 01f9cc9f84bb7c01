package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dod/internal/geom"
	"dod/internal/httpapi"
	"dod/internal/obs"
	"dod/internal/router"
	"dod/internal/serve"
	"dod/internal/stream"
	"dod/internal/synth"
	"dod/internal/wirejson"
)

// servingSpec is one serving workload: a count-bound window filled to
// capacity during set-up, then a closed loop with one client sending
// ingestsPerRound ingest batches and one score batch per round. Each
// /v1/ingest caller waits for its per-line verdicts, so the loop is
// closed.
type servingSpec struct {
	name     string
	shards   int // 0: one serve.Server; otherwise a router over this many shards
	capacity int
	batch    int // lines per request
}

// The serving workloads' detection parameters and batch mix.
const (
	serveR          = 5
	serveK          = 4
	ingestsPerRound = 3
)

// singleServing: one process-local window of 10k points that evicts on
// every timed ingest.
var singleServing = servingSpec{name: "serve-single", capacity: 10000, batch: 500}

// shardedServing: the router over three shard servers with a global window
// of 5k points; per-point evictions and support fan-out dominate.
var shardedServing = servingSpec{name: "serve-sharded", shards: 3, capacity: 5000, batch: 500}

// warmupShare is the share of --seconds a run spends in untimed rounds
// before it times any. A freshly filled window serves its first seconds
// faster than it does later, so timing starts once it has settled. The
// warm-up's answers are checked like the timed ones.
const warmupShare = 0.2

// servingSetupReps is how many times a run builds and fills the system;
// setup_s is the median and the last one is measured.
const servingSetupReps = 9

// pointStream yields an endless 2-D stream with the Massachusetts segment's
// density profile, one chunk the size of the window at a time, so the
// window's contents keep the segment's density. IDs never repeat.
type pointStream struct {
	seed    int64
	idBase  uint64
	chunk   int
	chunks  int
	pending []geom.Point
}

func (s *pointStream) take(n int) []geom.Point {
	for len(s.pending) < n {
		pts := synth.Segment(synth.Massachusetts, s.chunk, s.seed*1_000_003+int64(s.chunks))
		for i := range pts {
			pts[i].ID += s.idBase + uint64(s.chunks*s.chunk)
		}
		s.pending = append(s.pending, pts...)
		s.chunks++
	}
	out := s.pending[:n:n]
	s.pending = s.pending[n:]
	return out
}

// ndjson renders points as canonical request lines, as a well-formed
// client would send them.
func ndjson(pts []geom.Point) []byte {
	var buf []byte
	for _, p := range pts {
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
	}
	return buf
}

// system is one built serving tier behind a loopback URL.
type system struct {
	url     string
	regs    []*obs.Registry // every registry of the tier: server, or router then shards
	stages  *obs.Registry   // the single server's registry (stage histograms); nil when sharded
	closers []func()
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// build starts the tier. Shard handlers are wrapped in a shardTap so the
// traced run can time every router→shard and shard→shard call.
func (spec servingSpec) build(rec *recorder) (*system, error) {
	sys := &system{}
	if spec.shards == 0 {
		reg := obs.NewRegistry()
		srv, err := serve.New(serve.Config{
			Stream: stream.Config{R: serveR, K: serveK, Dim: 2, Capacity: spec.capacity},
			Obs:    reg,
		})
		if err != nil {
			return nil, err
		}
		hs := httptest.NewServer(srv.Handler())
		sys.url, sys.regs, sys.stages = hs.URL, []*obs.Registry{reg}, reg
		sys.closers = append(sys.closers, srv.Close, hs.Close)
		return sys, nil
	}
	var infos []router.ShardInfo
	var shardRegs []*obs.Registry
	for i := 0; i < spec.shards; i++ {
		name := fmt.Sprintf("s%d", i)
		reg := obs.NewRegistry()
		tr := httpapi.NewTransport()
		ss, err := serve.NewShard(serve.ShardServerConfig{Name: name, R: serveR, K: serveK, Dim: 2, Obs: reg, Transport: tr})
		if err != nil {
			sys.close()
			return nil, err
		}
		var h http.Handler = ss.Handler()
		if rec != nil {
			h = &shardTap{shard: name, next: h, rec: rec}
		}
		hs := httptest.NewServer(h)
		sys.closers = append(sys.closers, ss.Close, tr.CloseIdleConnections, hs.Close)
		infos = append(infos, router.ShardInfo{Name: name, URL: hs.URL})
		shardRegs = append(shardRegs, reg)
	}
	reg := obs.NewRegistry()
	tr := httpapi.NewTransport()
	rt, err := router.New(router.Config{
		R: serveR, K: serveK, Dim: 2, Capacity: spec.capacity,
		Shards: infos, Obs: reg, Transport: tr,
	})
	if err != nil {
		sys.close()
		return nil, err
	}
	if err := rt.Start(context.Background()); err != nil {
		sys.close()
		return nil, err
	}
	hs := httptest.NewServer(rt.Handler())
	sys.closers = append(sys.closers, tr.CloseIdleConnections, rt.Close, hs.Close)
	sys.url = hs.URL
	sys.regs = append([]*obs.Registry{reg}, shardRegs...)
	return sys, nil
}

// client is the single closed-loop client: one connection, one request in
// flight.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	next int
	resp bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

// post sends one batch and leaves the response body in c.resp. It returns
// a span from sending the request to reading the whole response, named
// after the path and carrying the request ID it sent.
func (c *client) post(url, path string, body []byte) (span, error) {
	c.next++
	s := span{Name: "client" + path, ReqID: "r" + strconv.Itoa(c.next)}
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(httpapi.HeaderRequestID, s.ReqID)
	c.resp.Reset()
	s.Start = time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		_, err = c.resp.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	s.End = time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.resp.Bytes()))
	}
	return s, err
}

// respLine decodes one response line with encoding/json, independently of
// the program's own encoder. Fields the wire omits when zero (seq,
// evicted, error) decode as zero; the fields it always writes are checked
// for presence by hasKeys.
type respLine struct {
	ID        uint64 `json:"id"`
	Seq       uint64 `json:"seq"`
	Neighbors int    `json:"neighbors"`
	Outlier   bool   `json:"outlier"`
	Evicted   int    `json:"evicted"`
	Error     string `json:"error"`
}

var alwaysKeys = [][]byte{[]byte(`"id":`), []byte(`"neighbors":`), []byte(`"outlier":`)}

func hasKeys(raw []byte) bool {
	for _, k := range alwaysKeys {
		if !bytes.Contains(raw, k) {
			return false
		}
	}
	return true
}

// forLines decodes each line of an NDJSON response body, which must hold
// exactly n lines.
func forLines(body []byte, n int, check func(i int, l *respLine) bool) error {
	i := 0
	for len(body) > 0 {
		raw := body
		if j := bytes.IndexByte(body, '\n'); j >= 0 {
			raw, body = body[:j], body[j+1:]
		} else {
			body = nil
		}
		if i >= n {
			return fmt.Errorf("more than %d response lines", n)
		}
		var l respLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return fmt.Errorf("line %d: %v", i, err)
		}
		if !hasKeys(raw) || l.Error != "" || !check(i, &l) {
			return fmt.Errorf("line %d: %s", i, raw)
		}
		i++
	}
	if i != n {
		return fmt.Errorf("%d response lines for %d points", i, n)
	}
	return nil
}

// checkVerdicts compares an ingest response field by field (id, seq,
// neighbors, outlier, evicted, and no error) with the reference verdicts.
func checkVerdicts(body []byte, want []stream.Verdict) error {
	return forLines(body, len(want), func(i int, l *respLine) bool {
		w := want[i]
		return l.ID == w.ID && l.Seq == w.Seq && l.Neighbors == w.Neighbors && l.Outlier == w.Outlier && l.Evicted == w.Evicted
	})
}

// checkScores compares a score response field by field (id, neighbors,
// outlier, and no seq, evicted or error) with the reference scores.
func checkScores(body []byte, want []stream.Score) error {
	return forLines(body, len(want), func(i int, l *respLine) bool {
		w := want[i]
		return l.ID == w.ID && l.Seq == 0 && l.Evicted == 0 && l.Neighbors == w.Neighbors && l.Outlier == w.Outlier
	})
}

// servingRun is one run's state.
type servingRun struct {
	spec servingSpec
	rc   runConfig
	out  *outcome
	cl   *client
	sys  *system
	rec  *recorder
	heap heapGoal

	ingestQ, scoreQ *pointStream
	// The timed phases only send requests and append each response to
	// responses; the reference replay and every check run after them, so
	// that none of the checking work (or its garbage) lands inside a timed
	// request.
	responses *os.File
	exchanges []exchange
	fills     [][][]byte // each set-up's fill responses
	warming   bool       // requests are warm-up: checked, not counted
}

// exchange is one warm-up or timed request, recorded for the checks that
// follow the timed phases.
type exchange struct {
	ingest bool
	n      int  // points sent
	size   int  // response bytes stored in the responses file
	traced bool // sent during the traced phase
	warmup bool // sent before timing started; not in attempted
	reqID  string
	err    error // transport or status error
}

// newStreams returns a run's ingest and score streams. Score queries are a
// second draw from the same distribution with IDs from 2^40 up, so they are
// never resident in the window.
func newStreams(spec servingSpec, seed int64) (ingest, score *pointStream) {
	return &pointStream{seed: seed, chunk: spec.capacity},
		&pointStream{seed: seed + 7_777_777, idBase: 1 << 40, chunk: spec.capacity}
}

func runServing(spec servingSpec, rc runConfig) (*outcome, error) {
	sr := &servingRun{spec: spec, rc: rc, out: &outcome{metrics: map[string]float64{}}, cl: newClient()}
	defer sr.cl.tr.CloseIdleConnections()
	sr.ingestQ, sr.scoreQ = newStreams(spec, rc.seed)
	if rc.trace {
		sr.rec = &recorder{}
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(rc.outDir, "responses-*.ndjson")
	if err != nil {
		return nil, err
	}
	sr.responses = f
	defer func() {
		f.Close()
		os.Remove(f.Name())
	}()

	// Every set-up fills the window with the same batches.
	var fillBodies [][]byte
	for n := 0; n < spec.capacity; n += spec.batch {
		fillBodies = append(fillBodies, ndjson(sr.ingestQ.take(min(spec.batch, spec.capacity-n))))
	}
	var setup samples
	for i := 0; i < servingSetupReps; i++ {
		if sr.sys != nil {
			sr.sys.close()
		}
		var resps [][]byte
		runtime.GC() // no collection of the previous build's garbage inside this one
		start := time.Now()
		sr.sys, err = spec.build(sr.rec)
		if err != nil {
			return nil, err
		}
		for _, body := range fillBodies {
			if _, err := sr.cl.post(sr.sys.url, "/v1/ingest", body); err != nil {
				sr.sys.close()
				return nil, fmt.Errorf("fill: %w", err)
			}
			resps = append(resps, bytes.Clone(sr.cl.resp.Bytes()))
		}
		setup = append(setup, time.Since(start))
		sr.fills = append(sr.fills, resps)
	}
	defer sr.sys.close()
	sr.warming = true
	sr.phase(warmupShare*rc.seconds, false)
	sr.warming = false
	sr.heap.reset()
	runtime.GC() // start the timed phase without set-up or warm-up garbage

	if !rc.trace {
		ph := sr.phase(rc.seconds, false)
		if err := sr.check(nil); err != nil {
			return nil, err
		}
		sr.out.metrics["setup_s"] = setup.median().Seconds()
		sr.endToEnd(ph)
		sr.out.notes = append(sr.out.notes, fmt.Sprintf("setup: %d builds, each filled to %d points", len(setup), spec.capacity))
		return sr.out, nil
	}
	return sr.out, sr.traced()
}

// phaseStats is what one timed phase of the closed loop measured.
type phaseStats struct {
	ingest, score     samples
	ingested, scored  int
	requests          []span // client request spans, for self-time accounting
	mallocs           uint64 // across requests only
	supportDuringIngs int64
}

// phase runs closed-loop rounds for seconds of wall time. When traced is
// set it also counts allocations and support RPCs per request.
func (sr *servingRun) phase(seconds float64, traced bool) *phaseStats {
	ps := &phaseStats{}
	spec := sr.spec
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(ps.ingest) == 0 || time.Now().Before(deadline) {
		for j := 0; j < ingestsPerRound; j++ {
			sr.request("/v1/ingest", sr.ingestQ.take(spec.batch), traced, ps)
		}
		sr.request("/v1/score", sr.scoreQ.take(spec.batch), traced, ps)
	}
	return ps
}

// request sends one batch, times it and stores the response for checking.
func (sr *servingRun) request(path string, pts []geom.Point, traced bool, ps *phaseStats) {
	body := ndjson(pts)
	ingest := path == "/v1/ingest"
	var m0, m1 runtime.MemStats
	var rpc0 int64
	if traced {
		rpc0 = sr.counter("dod_support_rpc_total")
		runtime.ReadMemStats(&m0)
	}
	s, err := sr.cl.post(sr.sys.url, path, body)
	if traced {
		runtime.ReadMemStats(&m1)
		ps.mallocs += m1.Mallocs - m0.Mallocs
		sr.rec.add(s)
		ps.requests = append(ps.requests, s)
		if ingest {
			ps.supportDuringIngs += sr.counter("dod_support_rpc_total") - rpc0
		}
	}
	sr.heap.sample()
	if !sr.warming {
		sr.out.attempted++
	}
	if ingest {
		ps.ingest = append(ps.ingest, s.dur())
		ps.ingested += len(pts)
	} else {
		ps.score = append(ps.score, s.dur())
		ps.scored += len(pts)
	}
	n, werr := sr.responses.Write(sr.cl.resp.Bytes())
	if err == nil {
		err = werr
	}
	sr.exchanges = append(sr.exchanges, exchange{ingest: ingest, n: len(pts), size: n, traced: traced, warmup: sr.warming, reqID: s.ReqID, err: err})
}

// layerTimes are the in-process timings the traced run takes while
// checking its traced requests.
type layerTimes struct {
	ingests, scores     int
	refIngest, refScore time.Duration // stream.Window.ProcessBatch / ScoreBatch
	parse, encode       time.Duration // wirejson over the same lines and answers
}

// check replays every batch this run sent through an in-process
// stream.Window of the same capacity and compares each stored response
// with it. With lt set it also times the window and the wire codec on the
// traced requests' batches.
func (sr *servingRun) check(lt *layerTimes) error {
	spec := sr.spec
	win, err := stream.NewWindow(stream.Config{R: serveR, K: serveK, Dim: 2, Capacity: spec.capacity})
	if err != nil {
		return err
	}
	ingestQ, scoreQ := newStreams(spec, sr.rc.seed)
	for j := 0; j*spec.batch < spec.capacity; j++ {
		pts := ingestQ.take(min(spec.batch, spec.capacity-j*spec.batch))
		want, err := referenceIngest(win, pts)
		if err != nil {
			return err
		}
		for i, resps := range sr.fills {
			if err := checkVerdicts(resps[j], want); err != nil {
				sr.out.fail("set-up %d, fill batch %d: %v", i, j, err)
			}
		}
	}
	if _, err := sr.responses.Seek(0, io.SeekStart); err != nil {
		return err
	}
	rd := bufio.NewReader(sr.responses)
	var resp []byte
	for _, ex := range sr.exchanges {
		resp = slices.Grow(resp[:0], ex.size)[:ex.size]
		if _, err := io.ReadFull(rd, resp); err != nil {
			return fmt.Errorf("reading stored responses: %w", err)
		}
		timed := lt != nil && ex.traced
		var pts []geom.Point
		if ex.ingest {
			pts = ingestQ.take(ex.n)
		} else {
			pts = scoreQ.take(ex.n)
		}
		if timed {
			lt.parse += timeParse(ndjson(pts), pts, sr.out)
		}
		start := time.Now()
		if ex.ingest {
			want, rerr := referenceIngest(win, pts)
			if timed {
				lt.refIngest += time.Since(start)
				lt.ingests++
				lt.encode += timeEncodeVerdicts(want)
			}
			if ex.err == nil {
				ex.err = rerr
			}
			if ex.err == nil {
				ex.err = checkVerdicts(resp, want)
			}
		} else {
			want, rerr := referenceScore(win, pts)
			if timed {
				lt.refScore += time.Since(start)
				lt.scores++
				lt.encode += timeEncodeScores(want)
			}
			if ex.err == nil {
				ex.err = rerr
			}
			if ex.err == nil {
				ex.err = checkScores(resp, want)
			}
		}
		if ex.err != nil {
			if !ex.warmup {
				sr.out.failed++
			}
			sr.out.fail("request %s: %v", ex.reqID, ex.err)
		}
	}
	return nil
}

func referenceIngest(win *stream.Window, pts []geom.Point) ([]stream.Verdict, error) {
	vs, errs := win.ProcessBatch(pts, time.Now())
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference window refused point %d: %v", pts[i].ID, err)
		}
	}
	return vs, nil
}

func referenceScore(win *stream.Window, pts []geom.Point) ([]stream.Score, error) {
	sc, errs := win.ScoreBatch(pts, 0)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference window could not score point %d: %v", pts[i].ID, err)
		}
	}
	return sc, nil
}

// timeParse times wirejson.ParsePoint over a request body's lines and
// checks it reads back the points that were rendered.
func timeParse(body []byte, pts []geom.Point, out *outcome) time.Duration {
	lines := bytes.Split(body, []byte("\n"))
	var dst []float64
	start := time.Now()
	bad := -1
	for i, line := range lines[:len(pts)] {
		id, coords, ok := wirejson.ParsePoint(line, dst[:0])
		dst = coords
		if (!ok || id != pts[i].ID) && bad < 0 {
			bad = i
		}
	}
	d := time.Since(start)
	if bad >= 0 {
		out.fail("wirejson.ParsePoint did not read back line %d: %q", bad, lines[bad])
	}
	return d
}

func timeEncodeVerdicts(vs []stream.Verdict) time.Duration {
	var buf []byte
	start := time.Now()
	for _, v := range vs {
		buf = wirejson.AppendVerdict(buf, v.ID, v.Seq, v.Neighbors, v.Outlier, v.Evicted, "")
	}
	return time.Since(start)
}

func timeEncodeScores(sc []stream.Score) time.Duration {
	var buf []byte
	start := time.Now()
	for _, s := range sc {
		buf = wirejson.AppendScore(buf, s.ID, s.Neighbors, s.Outlier, "")
	}
	return time.Since(start)
}

// counter sums one counter across every registry of the tier.
func (sr *servingRun) counter(name string, labels ...obs.Label) int64 {
	var total int64
	for _, reg := range sr.sys.regs {
		total += reg.Counter(name, "", labels...).Value()
	}
	return total
}

func (sr *servingRun) flips() int64 {
	return sr.counter("dod_stream_verdict_flips_total", obs.L("direction", "outlier_to_inlier")) +
		sr.counter("dod_stream_verdict_flips_total", obs.L("direction", "inlier_to_outlier"))
}

func (sr *servingRun) endToEnd(ps *phaseStats) {
	m := sr.out.metrics
	tail, pct, slices := ps.ingest.tail()
	m["op_ms_p50"] = ms(ps.ingest.median())
	m["op_ms_tail"] = ms(tail)
	m["pts_per_s"] = float64(ps.ingested) / (ps.ingest.total() + ps.score.total()).Seconds()
	m["heap_goal_mb"] = sr.heap.mb()
	_, spct, sslices := ps.score.tail()
	sr.out.notes = append(sr.out.notes,
		fmt.Sprintf("ingest requests: %d of %d lines (op_ms_tail is the median p%.1f of %d slices); score requests: %d (tail p%.1f of %d slices)",
			len(ps.ingest), sr.spec.batch, pct, slices, len(ps.score), spct, sslices))
}

// stageSums returns the single server's batch stage histogram sums (read,
// process, write), summed over both endpoints.
func (sr *servingRun) stageSums() [3]float64 {
	var out [3]float64
	if sr.sys.stages == nil {
		return out
	}
	for i, stage := range []string{"read", "process", "write"} {
		for _, ep := range []string{"ingest", "score"} {
			out[i] += sr.sys.stages.Histogram("dod_serve_batch_stage_seconds", "", nil,
				obs.L("endpoint", ep), obs.L("stage", stage)).Sum()
		}
	}
	return out
}

// traced is the per-layer run: an untraced half (the comparison for
// tracing overhead, and the score latency) and a traced half that records
// spans and counter deltas, then the checks, which also time the window
// and wire layers on the traced half's batches.
func (sr *servingRun) traced() error {
	m := sr.out.metrics
	untraced := sr.phase(0.5*sr.rc.seconds, false)
	scoreTail, _, _ := untraced.score.tail()
	m["score_ms_p50"] = ms(untraced.score.median())
	m["score_ms_tail"] = ms(scoreTail)

	stage0 := sr.stageSums()
	evict0, flips0 := sr.counter("dod_stream_evicted_total"), sr.flips()
	calls0, retries0 := sr.counter("dod_route_shard_calls_total"), sr.counter("dod_route_shard_retries_total")
	sr.rec.on.Store(true)
	ps := sr.phase(0.5*sr.rc.seconds, true)
	sr.rec.on.Store(false)
	stage1 := sr.stageSums()

	reqs := float64(len(ps.ingest) + len(ps.score))
	lines := float64(ps.ingested + ps.scored)
	m["trace.overhead_ms"] = ms(ps.ingest.median() - untraced.ingest.median())
	m["stream.evictions_per_1k"] = perK(float64(sr.counter("dod_stream_evicted_total")-evict0), float64(ps.ingested))
	m["stream.flips_per_1k"] = perK(float64(sr.flips()-flips0), float64(ps.ingested))
	m["serve.allocs_per_line"] = float64(ps.mallocs) / lines
	m["support.rpcs_per_1k"] = perK(float64(ps.supportDuringIngs), float64(ps.ingested))
	m["router.shard_calls_per_1k"] = perK(float64(sr.counter("dod_route_shard_calls_total")-calls0), lines)
	m["router.shard_retries"] = float64(sr.counter("dod_route_shard_retries_total") - retries0)

	requestTime := (ps.ingest.total() + ps.score.total()).Seconds()
	if sr.sys.stages != nil {
		var stages float64
		for i, name := range []string{"serve.read_s", "serve.process_s", "serve.write_s"} {
			m[name] = (stage1[i] - stage0[i]) / reqs
			stages += stage1[i] - stage0[i]
		}
		m["http.self_s"] = (requestTime - stages) / reqs
	}

	spans := sr.rec.snapshot()
	if sr.spec.shards > 0 {
		var shardSpans []span
		count := map[string]float64{}
		busy := map[string]time.Duration{}
		for _, s := range spans {
			if path, ok := strings.CutPrefix(s.Name, "shard."); ok {
				shardSpans = append(shardSpans, s)
				count[path]++
				busy[path] += s.dur()
			}
		}
		for _, p := range shardPaths {
			units, perReq := float64(ps.ingested), float64(len(ps.ingest))
			if p == "score" {
				units, perReq = float64(ps.scored), float64(len(ps.score))
			}
			m["shard."+p+".calls_per_1k"] = perK(count[p], units)
			m["shard."+p+".busy_s"] = ratio(busy[p].Seconds(), perReq)
		}
		var self time.Duration
		for _, r := range ps.requests {
			self += r.dur() - covered(r.Start, r.End, shardSpans)
		}
		m["router.self_s"] = self.Seconds() / reqs
	}

	var lt layerTimes
	if err := sr.check(&lt); err != nil {
		return err
	}
	m["wire.parse_s"] = lt.parse.Seconds() / reqs
	m["wire.encode_s"] = lt.encode.Seconds() / reqs
	m["stream.ingest_s"] = ratio(lt.refIngest.Seconds(), float64(lt.ingests))
	m["stream.score_s"] = ratio(lt.refScore.Seconds(), float64(lt.scores))

	path, err := writeSpans(sr.rc.outDir, spanFileName(sr.spec.name, sr.rc.seed), spans)
	if err != nil {
		return err
	}
	sr.out.notes = append(sr.out.notes,
		fmt.Sprintf("untraced half: %d ingest, %d score requests; traced half: %d ingest, %d score requests",
			len(untraced.ingest), len(untraced.score), len(ps.ingest), len(ps.score)),
		"spans: "+path)
	return nil
}
