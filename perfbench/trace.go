package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dod/internal/httpapi"
	"dod/internal/router"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public entry point (or, for shard handlers, around the handler
// the shard exports). Parent is the index of the innermost span whose
// interval contains this one; with one client request in flight, interval
// nesting is causation.
type span struct {
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Parent int               `json:"parent"` // -1 for roots
	ReqID  string            `json:"req_id,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one switched off, records nothing: untraced runs pass nil, and a traced
// run switches recording on only for its traced phase.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// enabled reports whether spans are being kept; a traced run switches
// recording off while it measures its untraced comparison phase.
func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) add(s span) {
	if !r.enabled() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(name, reqID string, attrs map[string]string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(span{Name: name, Start: start, End: end, ReqID: reqID, Attrs: attrs})
	return end.Sub(start)
}

// snapshot returns the spans sorted by start (longest first on ties) with
// parents assigned by interval containment.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].End.After(out[j].End)
	})
	// Walk in start order keeping a stack of open intervals: the top that
	// still contains a span is its innermost enclosing span.
	var stack []int
	for i := range out {
		for len(stack) > 0 && out[stack[len(stack)-1]].End.Before(out[i].End) {
			stack = stack[:len(stack)-1]
		}
		out[i].Parent = -1
		if len(stack) > 0 {
			out[i].Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return out
}

// writeSpans writes spans as JSON lines to dir/name.jsonl.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// covered returns how much of [start, end) the given intervals cover,
// counting overlaps once.
func covered(start, end time.Time, spans []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if a.Before(b) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// shardTap wraps one shard's exported handler and records a span per call.
// The router's score probes are /v1/support calls without a request ID;
// mutating support calls always carry one, so the two are told apart here.
type shardTap struct {
	shard string
	next  http.Handler
	rec   *recorder
}

func (t *shardTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.rec.enabled() {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	end := time.Now()
	reqID := r.Header.Get(httpapi.HeaderRequestID)
	t.rec.add(span{
		Name:  "shard." + shardPath(r.URL.Path, reqID),
		Start: start, End: end,
		ReqID: strings.SplitN(reqID, "|", 2)[0],
		Attrs: map[string]string{"shard": t.shard, "key": reqID},
	})
}

// shardPaths are the shard call kinds the serving metrics report.
var shardPaths = []string{"ingest_batch", "evict", "support", "score"}

func shardPath(path, reqID string) string {
	switch path {
	case router.PathShardIngestBatch:
		return "ingest_batch"
	case router.PathShardEvict:
		return "evict"
	case router.PathSupport:
		if reqID == "" {
			return "score"
		}
		return "support"
	}
	return strings.TrimPrefix(path, "/")
}

func spanFileName(workload string, seed int64) string {
	return fmt.Sprintf("%s-seed%d", workload, seed)
}
