package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"comfedsv"
	"comfedsv/internal/service"
)

// pollEvery is how often a client polls a running job's status.
const pollEvery = 5 * time.Millisecond

// jobTimeout bounds one valuation; a job past it counts as failed.
const jobTimeout = 120 * time.Second

// span is one timed interval of the traced run. Job ties the spans of one
// valuation together (unique per run; Index is the input's job index);
// Parent names the span that caused this one.
type span struct {
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Job    int64     `json:"job"`
	Index  int       `json:"index"`
	Shard  int       `json:"shard,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	State        string              `json:"state"`
	Error        string              `json:"error"`
	SubmittedAt  time.Time           `json:"submitted_at"`
	StartedAt    *time.Time          `json:"started_at"`
	FinishedAt   *time.Time          `json:"finished_at"`
	StageSeconds map[string]float64  `json:"stage_seconds"`
	CacheStats   *comfedsv.EvalStats `json:"cache_stats"`
}

// jobResult is the outcome of one valuation.
type jobResult struct {
	Index    int
	RunID    string
	Wall     time.Duration // first request sent → report body received
	Report   []byte        // report body as served
	Err      error
	Requests int
	Errors   int // HTTP responses with an unexpected status
	Status   jobStatus
	Spans    []span

	// Persist-layer probes of traced jobs, taken after the clock stopped.
	SidecarBytes float64
	LoadSeconds  float64
}

// jobInput is a generated federation with its pre-encoded run request,
// built before a job's clock starts.
type jobInput struct {
	fed     Federation
	runBody []byte
}

// valuator runs one valuation end to end.
type valuator interface {
	valuate(ctx context.Context, idx int, in jobInput) jobResult
}

// httpValuator drives the daemon over HTTP: POST /v1/runs → POST /v1/jobs
// {run_id} → poll status → GET report.
type httpValuator struct {
	base   string
	shape  Shape
	client *http.Client
	trace  bool
	ids    *atomic.Int64 // source of span job IDs
	poll   time.Duration // status poll interval; 0 means pollEvery
}

func (h *httpValuator) valuate(ctx context.Context, idx int, in jobInput) jobResult {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	r := jobResult{Index: idx}
	id := h.ids.Add(1)
	start := time.Now()
	call := func(name, method, path string, body []byte, want ...int) ([]byte, error) {
		t0 := time.Now()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, h.base+path, rd)
		if err != nil {
			return nil, err
		}
		r.Requests++
		resp, err := h.client.Do(req)
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if h.trace {
			r.Spans = append(r.Spans, span{Name: name, Parent: "job", Job: id, Index: idx, Start: t0, End: time.Now()})
		}
		if err != nil {
			return nil, err
		}
		for _, w := range want {
			if resp.StatusCode == w {
				return b, nil
			}
		}
		r.Errors++
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	r.Err = func() error {
		b, err := call("api.post_run", "POST", "/v1/runs", in.runBody, http.StatusOK, http.StatusAccepted)
		if err != nil {
			return err
		}
		var run struct{ ID string }
		if err := json.Unmarshal(b, &run); err != nil {
			return err
		}
		r.RunID = run.ID
		b, err = call("api.post_job", "POST", "/v1/jobs", h.shape.JobBody(run.ID, in.fed), http.StatusAccepted)
		if err != nil {
			return err
		}
		var sub struct{ ID string }
		if err := json.Unmarshal(b, &sub); err != nil {
			return err
		}
		for {
			b, err := call("api.poll", "GET", "/v1/jobs/"+sub.ID, nil, http.StatusOK)
			if err != nil {
				return err
			}
			r.Status = jobStatus{}
			if err := json.Unmarshal(b, &r.Status); err != nil {
				return err
			}
			if r.Status.State == string(service.StateDone) {
				break
			}
			if r.Status.State == string(service.StateFailed) {
				return fmt.Errorf("job %s failed: %s", sub.ID, r.Status.Error)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(cmp.Or(h.poll, pollEvery)):
			}
		}
		r.Report, err = call("api.get_report", "GET", "/v1/jobs/"+sub.ID+"/report", nil, http.StatusOK)
		return err
	}()
	end := time.Now()
	r.Wall = end.Sub(start)
	if h.trace {
		r.Spans = append(r.Spans, span{Name: "job", Job: id, Index: idx, Start: start, End: end})
	}
	return r
}

// inprocValuator submits the same jobs through service.Manager directly,
// with comfedsv.Options.OnStageTime hooked so every pipeline stage becomes
// a span (end = callback time, start = end − Duration).
type inprocValuator struct {
	mgr   *service.Manager
	shape Shape
	ids   *atomic.Int64 // source of span job IDs
}

func (p *inprocValuator) valuate(ctx context.Context, idx int, in jobInput) jobResult {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	r := jobResult{Index: idx}
	id := p.ids.Add(1)
	var mu sync.Mutex
	hook := func(st comfedsv.StageTiming) {
		end := time.Now()
		mu.Lock()
		r.Spans = append(r.Spans, span{Name: st.Stage, Parent: "job", Job: id, Index: idx, Shard: st.Shard, Start: end.Add(-st.Duration), End: end})
		mu.Unlock()
	}
	// Shards leased to a remote worker emit no stage time on this side,
	// only progress: observe entry (Done 0) and one event per import.
	var obsEntry, obsLast time.Time
	obsDone := 0
	progress := func(pg comfedsv.Progress) {
		if pg.Stage != comfedsv.StageObserve {
			return
		}
		now := time.Now()
		mu.Lock()
		if pg.Done == 0 && obsEntry.IsZero() {
			obsEntry = now
		} else if pg.Done > 0 {
			obsDone++
			obsLast = now
		}
		mu.Unlock()
	}
	start := time.Now()
	r.Err = func() error {
		spec := service.RunSpec{Clients: in.fed.Clients, Test: in.fed.Test, Options: p.shape.TrainOptions(in.fed.Seed)}
		spec.Options.OnStageTime = hook
		run, _, err := p.mgr.CreateRun(spec)
		if err != nil {
			return err
		}
		r.RunID = run.ID
		opts := p.shape.JobOptions(in.fed.Seed)
		opts.OnStageTime = hook
		opts.OnProgress = progress
		jobID, err := p.mgr.Submit(service.Request{RunID: run.ID, Options: opts})
		if err != nil {
			return err
		}
		for {
			st, err := p.mgr.Status(jobID)
			if err != nil {
				return err
			}
			if st.State.Terminal() {
				r.Status = jobStatus{State: string(st.State), Error: st.Error,
					SubmittedAt: st.SubmittedAt, StartedAt: st.StartedAt, FinishedAt: st.FinishedAt, StageSeconds: st.StageSeconds, CacheStats: st.CacheStats}
				if st.State != service.StateDone {
					return fmt.Errorf("job %s failed: %s", jobID, st.Error)
				}
				break
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
		rep, err := p.mgr.Report(jobID)
		if err != nil {
			return err
		}
		// Encoded as the API serves it, so reports compare byte for byte.
		body, err := json.MarshalIndent(rep, "", "  ")
		r.Report = append(body, '\n')
		return err
	}()
	end := time.Now()
	r.Wall = end.Sub(start)
	mu.Lock()
	defer mu.Unlock()
	local := 0
	for _, s := range r.Spans {
		if s.Name == comfedsv.StageObserve {
			local++
		}
	}
	if obsDone > local && !obsEntry.IsZero() {
		// One span from observe entry to the last import covers the
		// remote shards, which one worker runs back to back.
		r.Spans = append(r.Spans, span{Name: comfedsv.StageObserve, Parent: "job", Job: id, Index: idx, Shard: -2, Start: obsEntry, End: obsLast})
	}
	r.Spans = append(r.Spans, span{Name: "job", Job: id, Index: idx, Start: start, End: end})
	return r
}

// passResult is one closed-loop pass: every job it ran, plus per-client
// job counts and busy time (pass start → the client's last report).
type passResult struct {
	jobs   []jobResult
	counts []int
	busy   []time.Duration
}

// closedLoop runs clients that each value one federation at a time,
// taking the next job from next() only after the previous report arrived,
// until next reports no more work. Jobs in flight when next runs dry are
// finished, not cut.
//
// after, if non-nil, runs on the client's goroutine once each job's clock
// has stopped, before the client takes its next job.
func closedLoop(ctx context.Context, clients int, next func() (int, bool), input func(int) jobInput, v valuator, after func(*jobResult)) passResult {
	res := passResult{counts: make([]int, clients), busy: make([]time.Duration, clients)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx, ok := next()
				if !ok || ctx.Err() != nil {
					return
				}
				in := input(idx)
				r := v.valuate(ctx, idx, in)
				done := time.Since(start)
				if after != nil {
					after(&r)
				}
				mu.Lock()
				res.jobs = append(res.jobs, r)
				res.counts[c]++
				res.busy[c] = done
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}
