package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tanglefind/internal/store"
)

// span is one timed call into a layer. Name is "<layer>.<call>"; the
// benchmark's own operations are roots named "op.<kind>".
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // shared by every span of one operation
	Start  int64  `json:"start_ns"`      // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so the measured code is
// identical in both runs apart from the recording itself.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	// active maps a goroutine to the HTTP handler span it is serving,
	// so backend calls made inside a handler find their parent.
	active sync.Map // goroutine id -> span id
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

type spanKey struct{}

type spanCtx struct {
	id  int64
	req string
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// op runs fn as the root span of one benchmark operation.
func (t *tracer) op(ctx context.Context, kind string, fn func(context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	id := t.next.Add(1)
	return t.timed(ctx, spanCtx{id: id, req: "op-" + strconv.FormatInt(id, 10)}, 0, "op."+kind, fn)
}

// call runs fn as a child span of the operation in ctx.
func (t *tracer) call(ctx context.Context, name string, fn func(context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	parent := spanFrom(ctx)
	return t.timed(ctx, spanCtx{id: t.next.Add(1), req: parent.req}, parent.id, name, fn)
}

func (t *tracer) timed(ctx context.Context, sc spanCtx, parent int64, name string, fn func(context.Context) error) error {
	start := time.Since(t.t0)
	err := fn(context.WithValue(ctx, spanKey{}, sc))
	t.add(span{ID: sc.id, Parent: parent, Name: name, Req: sc.req, Start: int64(start), End: int64(time.Since(t.t0))})
	return err
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// interval records a span whose times were measured elsewhere (job
// stages reported by the server).
func (t *tracer) interval(ctx context.Context, name string, from, to time.Time) {
	if t == nil || !to.After(from) {
		return
	}
	parent := spanFrom(ctx)
	t.add(span{ID: t.next.Add(1), Parent: parent.id, Name: name, Req: parent.req,
		Start: int64(from.Sub(t.t0)), End: int64(to.Sub(t.t0))})
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's id. Go exposes no goroutine
// identity, so it is parsed from the stack header; only the traced run
// pays for it.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// ---- client side: propagate the span id as the request ID ----

// reqIDTransport stamps every request with the calling span's id as
// its X-Request-ID, which the server echoes into its logs and jobs and
// the handler middleware uses as its span parent.
type reqIDTransport struct{ base http.RoundTripper }

func (t reqIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if sc := spanFrom(r.Context()); sc.id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set("X-Request-ID", "span-"+strconv.FormatInt(sc.id, 10))
	}
	return t.base.RoundTrip(r)
}

// ---- server side: one span per handled request ----

// routeName labels a request with the handler it reaches.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/netlists":
		return "server.upload"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/deltas"):
		return "server.delta"
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "server.submit"
	case strings.HasSuffix(p, "/events"):
		return "server.events"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "server.job"
	case p == "/v1/stats":
		return "server.stats"
	}
	return "server.other"
}

// middleware wraps the server's handler in the traced run: it times
// each request as a child of the client span named by X-Request-ID.
func middleware(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent int64
		if v, ok := strings.CutPrefix(r.Header.Get("X-Request-ID"), "span-"); ok {
			parent, _ = strconv.ParseInt(v, 10, 64)
		}
		id, g := t.next.Add(1), goid()
		t.active.Store(g, id)
		start := time.Since(t.t0)
		h.ServeHTTP(w, r)
		t.active.Delete(g)
		t.add(span{ID: id, Parent: parent, Name: routeName(r), Start: int64(start), End: int64(time.Since(t.t0))})
	})
}

// ---- store side: time every backend call ----

// tracedBackend decorates the store.Backend handed to store.Open.
// Calls made inside an HTTP handler are children of its span; calls
// from job workers (result journaling) are attributed afterwards.
type tracedBackend struct {
	store.Backend
	t *tracer
}

func (b tracedBackend) timed(name string, fn func()) {
	parent, _ := b.t.active.Load(goid())
	p, _ := parent.(int64)
	start := time.Since(b.t.t0)
	fn()
	b.t.add(span{ID: b.t.next.Add(1), Parent: p, Name: name, Start: int64(start), End: int64(time.Since(b.t.t0))})
}

func (b tracedBackend) PutBlob(digest string, data []byte) (err error) {
	b.timed("store.put_blob", func() { err = b.Backend.PutBlob(digest, data) })
	return err
}

func (b tracedBackend) GetBlob(digest string) (data []byte, err error) {
	b.timed("store.get_blob", func() { data, err = b.Backend.GetBlob(digest) })
	return data, err
}

func (b tracedBackend) Append(rec store.Record) (err error) {
	b.timed("store.append", func() { err = b.Backend.Append(rec) })
	return err
}

func (b tracedBackend) Replay(fn func(store.Record) error) (rs store.ReplayStats, err error) {
	b.timed("store.replay", func() { rs, err = b.Backend.Replay(fn) })
	return rs, err
}

// ---- analysis ----

// traceView indexes a run's spans for self-time and path accounting.
type traceView struct {
	spans    []span
	byID     map[int64]int
	children map[int64][]int
}

// analyze builds the view. Backend spans recorded outside any handler
// (journal appends from job workers) are re-parented to the innermost
// span containing them when exactly one operation was in flight over
// that interval; otherwise they stay background roots.
func analyze(spans []span) *traceView {
	v := &traceView{spans: spans, byID: make(map[int64]int, len(spans)), children: map[int64][]int{}}
	for i, s := range spans {
		v.byID[s.ID] = i
	}
	// Handler and backend spans carry no request id: inherit it.
	var reqOf func(i int) string
	reqOf = func(i int) string {
		s := &v.spans[i]
		if s.Req == "" && s.Parent != 0 {
			if p, ok := v.byID[s.Parent]; ok {
				s.Req = reqOf(p)
			}
		}
		return s.Req
	}
	var roots []int
	for i := range v.spans {
		reqOf(i)
		if v.spans[i].Parent == 0 && v.spans[i].layer() == "op" {
			roots = append(roots, i)
		}
	}
	for i := range v.spans {
		s := &v.spans[i]
		if s.Parent != 0 || s.layer() == "op" {
			continue
		}
		holder := -1
		for _, r := range roots {
			if v.spans[r].Start <= s.Start && s.End <= v.spans[r].End {
				if holder >= 0 {
					holder = -1
					break
				}
				holder = r
			}
		}
		if holder < 0 {
			continue
		}
		best := holder
		for j, c := range v.spans {
			if j != i && c.Req == v.spans[holder].Req && c.Start <= s.Start && s.End <= c.End && c.dur() < v.spans[best].dur() {
				best = j
			}
		}
		s.Parent, s.Req = v.spans[best].ID, v.spans[best].Req
	}
	// A job's stages happen while the server streams its events: they
	// become children of the overlapping server.events span of their
	// operation rather than its siblings.
	events := map[string][]int{}
	for i, s := range v.spans {
		if s.Name == "server.events" {
			events[s.Req] = append(events[s.Req], i)
		}
	}
	for i := range v.spans {
		s := &v.spans[i]
		if l := s.layer(); l != "jobs" && l != "core" && l != "lint" {
			continue
		}
		var best, most int64 = 0, 0
		for _, e := range events[s.Req] {
			ev := v.spans[e]
			if o := min(ev.End, s.End) - max(ev.Start, s.Start); o > most {
				best, most = ev.ID, o
			}
		}
		if best != 0 {
			s.Parent = best
		}
	}
	for i, s := range v.spans {
		if s.Parent != 0 {
			v.children[s.Parent] = append(v.children[s.Parent], i)
		}
	}
	return v
}

// self is a span's duration minus the part of its interval that its
// children cover.
func (v *traceView) self(i int) time.Duration {
	s := v.spans[i]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range v.children[s.ID] {
		a, b := max(v.spans[c].Start, s.Start), min(v.spans[c].End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var covered, end int64 = 0, s.Start
	for _, x := range ivs {
		if x.b <= end {
			continue
		}
		covered += x.b - max(x.a, end)
		end = x.b
	}
	return s.dur() - time.Duration(covered)
}

// named returns the indices of spans called name.
func (v *traceView) named(name string) []int {
	var out []int
	for i, s := range v.spans {
		if s.Name == name {
			out = append(out, i)
		}
	}
	return out
}

// meanMS is the mean duration of the named spans (0 when none ran).
func (v *traceView) meanMS(name string) float64 {
	idx := v.named(name)
	if len(idx) == 0 {
		return 0
	}
	var sum time.Duration
	for _, i := range idx {
		sum += v.spans[i].dur()
	}
	return ms(sum) / float64(len(idx))
}

// meanSelfMS is the mean self time of the named spans.
func (v *traceView) meanSelfMS(name string) float64 {
	idx := v.named(name)
	if len(idx) == 0 {
		return 0
	}
	var sum time.Duration
	for _, i := range idx {
		sum += v.self(i)
	}
	return ms(sum) / float64(len(idx))
}

// clientOverheadMS is the mean of (client round trip − handler time)
// over request/response calls; SSE streams wait on jobs, not on the
// transport, and are left out.
func (v *traceView) clientOverheadMS() float64 {
	var sum time.Duration
	n := 0
	for i, s := range v.spans {
		if s.layer() != "client" || s.Name == "client.stream" {
			continue
		}
		sum += v.self(i)
		n++
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// pathBreakdown charges every instant of the named operations to the
// deepest span covering it and returns, per layer, the mean time per
// operation: the blocking path of one operation, summing exactly to
// its duration. The "op" layer is time no call covers — the
// unattributed remainder.
func (v *traceView) pathBreakdown(opName string) (n int, meanMS float64, layers map[string]float64) {
	layers = map[string]float64{}
	type node struct {
		i     int
		depth int
	}
	var total time.Duration
	for _, root := range v.named(opName) {
		n++
		r := v.spans[root]
		total += r.dur()
		nodes := []node{{root, 0}}
		for k := 0; k < len(nodes); k++ {
			for _, c := range v.children[v.spans[nodes[k].i].ID] {
				nodes = append(nodes, node{c, nodes[k].depth + 1})
			}
		}
		var cuts []int64
		for _, nd := range nodes {
			s := v.spans[nd.i]
			cuts = append(cuts, min(max(s.Start, r.Start), r.End), min(max(s.End, r.Start), r.End))
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		for k := 0; k+1 < len(cuts); k++ {
			a, b := cuts[k], cuts[k+1]
			if b == a {
				continue
			}
			best := nodes[0]
			for _, nd := range nodes[1:] {
				s := v.spans[nd.i]
				if s.Start <= a && b <= s.End && (nd.depth > best.depth || nd.depth == best.depth && s.Start > v.spans[best.i].Start) {
					best = nd
				}
			}
			layers[v.spans[best.i].layer()] += ms(time.Duration(b - a))
		}
	}
	if n == 0 {
		return 0, 0, layers
	}
	for k := range layers {
		layers[k] /= float64(n)
	}
	return n, ms(total) / float64(n), layers
}

// printPath writes one operation's blocking-path breakdown.
func printPath(w *report, opName string, v *traceView) float64 {
	n, mean, layers := v.pathBreakdown(opName)
	if n == 0 {
		return 0
	}
	keys := make([]string, 0, len(layers))
	for k := range layers {
		if k != "op" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "path %s n=%d mean=%.3fms:", opName, n, mean)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.3f", k, layers[k])
	}
	fmt.Fprintf(&b, " unattributed=%.3f", layers["op"])
	w.note(b.String())
	return layers["op"]
}
