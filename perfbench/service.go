package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tanglefind/api"
	"tanglefind/client"
	"tanglefind/internal/jobs"
	"tanglefind/internal/server"
	"tanglefind/internal/store"
)

// service is gtlserved assembled in-process exactly as its run()
// assembles it — store.OpenDisk → store.Open → jobs.New → server.New
// with the command's default flags and a durable data dir — listening
// on loopback. The traced run wraps the backend and the handler.
type service struct {
	st   *store.Store
	mgr  *jobs.Manager
	hs   *http.Server
	errc chan error
	cl   *client.Client
	hc   *http.Client
	tr   *tracer
}

// gtlserved's flag defaults.
const (
	defaultJobWorkers   = 2
	defaultQueueDepth   = 64
	defaultCachePins    = 64_000_000
	defaultCacheResults = 128
	defaultIncrStates   = 8
)

// opTimeout bounds every request and every find the benchmark makes,
// so a stuck job or event stream ends as a failed operation instead of
// hanging the run. It is a generous multiple of the slowest operation,
// a 100K-cell find of about a second.
const opTimeout = 30 * time.Second

// startService opens (or reopens) the data dir and serves it; the
// traced run times each assembly step, recovery included.
func startService(ctx context.Context, dir string, cachePins int64, tr *tracer) (*service, error) {
	backend, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	var b store.Backend = backend
	if tr != nil {
		b = tracedBackend{Backend: backend, t: tr}
	}
	var st *store.Store
	if err := tr.call(ctx, "store.open", func(context.Context) (err error) {
		st, err = store.Open(cachePins, b)
		return err
	}); err != nil {
		backend.Close()
		return nil, fmt.Errorf("recover data dir %s: %w", dir, err)
	}
	// The command logs to stderr; the benchmark keeps the formatting
	// cost and drops the bytes.
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	var mgr *jobs.Manager
	tr.call(ctx, "jobs.new", func(context.Context) error {
		mgr = jobs.New(jobs.Config{
			Store:        st,
			Workers:      defaultJobWorkers,
			QueueDepth:   defaultQueueDepth,
			CacheResults: defaultCacheResults,
			IncrStates:   defaultIncrStates,
			Logger:       logger,
		})
		return nil
	})
	var h http.Handler = server.New(st, mgr, server.WithLogger(logger)).Handler()
	if tr != nil {
		h = middleware(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown(ctx)
		st.Close()
		return nil, err
	}
	s := &service{st: st, mgr: mgr, hs: &http.Server{Handler: h}, errc: make(chan error, 1), tr: tr}
	go func() { s.errc <- s.hs.Serve(ln) }()
	// At most nproc connections: the closed loop never has more
	// requests in flight than client goroutines.
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}
	if tr != nil {
		rt = reqIDTransport{base: rt}
	}
	s.hc = &http.Client{Transport: rt, Timeout: opTimeout}
	s.cl = client.New("http://"+ln.Addr().String(), s.hc)
	return s, nil
}

// stop drains like gtlserved on SIGTERM and closes the store.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpErr := s.hs.Shutdown(ctx)
	jobErr := s.mgr.Shutdown(ctx)
	<-s.errc
	s.hc.CloseIdleConnections()
	closeErr := s.st.Close()
	return errors.Join(httpErr, jobErr, closeErr)
}

// diskBytes is the size of the data dir: blobs plus journal.
func diskBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// jobRun is one job driven to completion through the public API.
type jobRun struct {
	st         api.JobStatus // final status; the result's GTL members and lint findings are dropped once digested
	got        digest        // identity of the served result
	cached     bool          // answered from the result cache at submit
	submit     time.Duration // submit round trip
	firstEvent time.Duration // submit start → first SSE event (0 when cached)
}

// runJob submits req, follows the job's SSE stream to its terminal
// event and fetches the result. Completion is observed on the stream,
// never by polling.
func (s *service) runJob(ctx context.Context, req api.JobRequest) (jobRun, error) {
	var out jobRun
	t0 := time.Now()
	err := s.tr.call(ctx, "client.submit", func(ctx context.Context) error {
		var err error
		out.st, err = s.cl.Submit(ctx, req)
		return err
	})
	out.submit = time.Since(t0)
	if err != nil {
		return out, fmt.Errorf("submit %s: %w", req.Kind, err)
	}
	if out.st.State.Terminal() {
		out.cached = out.st.Cached
		return out, out.finish()
	}
	id := out.st.ID
	err = s.tr.call(ctx, "client.stream", func(ctx context.Context) error {
		return s.cl.StreamEvents(ctx, id, func(api.Event) bool {
			if out.firstEvent == 0 {
				out.firstEvent = time.Since(t0)
			}
			return true
		})
	})
	if err != nil {
		return out, fmt.Errorf("stream %s: %w", id, err)
	}
	err = s.tr.call(ctx, "client.job", func(ctx context.Context) error {
		var err error
		out.st, err = s.cl.Job(ctx, id)
		return err
	})
	if err != nil {
		return out, fmt.Errorf("fetch %s: %w", id, err)
	}
	s.stageSpans(ctx, out.st)
	return out, out.finish()
}

// finish checks the job succeeded and digests its result.
func (r *jobRun) finish() error {
	st := r.st
	if st.State != api.StateDone || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	r.got = resultDigest(st.Result)
	res := *st.Result
	res.GTLs, res.Lint = nil, nil
	r.st.Result = &res
	return nil
}

// stageSpans lays a finished job's server-side stages out as spans
// under the operation: queue wait, the engine call and result merge,
// placed at the job's own timestamps.
func (s *service) stageSpans(ctx context.Context, st api.JobStatus) {
	if s.tr == nil || st.StartedAt == nil || st.Result == nil {
		return
	}
	stg := st.Result.Stages
	engine := "core.engine"
	if st.Kind == api.KindLint {
		engine = "lint.engine"
	}
	start := *st.StartedAt
	s.tr.interval(ctx, "jobs.queue_wait", st.CreatedAt, start)
	engEnd := start.Add(stg["engine"])
	s.tr.interval(ctx, engine, start, engEnd)
	s.tr.interval(ctx, "jobs.merge", engEnd, engEnd.Add(stg["merge"]))
}

// stats fetches /v1/stats.
func (s *service) stats(ctx context.Context) (api.ServerStats, error) {
	return s.cl.Stats(ctx)
}

// refused reports whether err is the server refusing work (429/5xx),
// as opposed to a wrong answer.
func refused(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && (ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode >= 500)
}
