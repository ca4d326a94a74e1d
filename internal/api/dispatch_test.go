package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"comfedsv"
	"comfedsv/internal/dispatch"
	"comfedsv/internal/faultinject"
	"comfedsv/internal/persist"
	"comfedsv/internal/service"
	"comfedsv/internal/utility"
)

// dispatchDaemon is comfedsvd with -dispatch: a Manager wired to a shard
// coordinator behind the real route table, sharing a run store with the
// workers.
func dispatchDaemon(t *testing.T, runsDir string, coord *dispatch.Coordinator, cfg service.Config) *httptest.Server {
	t.Helper()
	runs, err := persist.NewRunStore(runsDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RunStore = runs
	cfg.Dispatcher = coord
	mgr, err := service.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mgr)
	srv.SetDispatcher(coord)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	return ts
}

// runWorker is cmd/comfedsv-worker's loop in-process: register, long-poll
// for leases, hydrate the trace from the shared run store, walk the leased
// permutation slice, and report every cell the walk touched.
func runWorker(ctx context.Context, t *testing.T, base, id, runsDir string) {
	runs, err := persist.NewRunStore(runsDir)
	if err != nil {
		t.Errorf("worker %s: opening run store: %v", id, err)
		return
	}
	cl := dispatch.NewClient(base, id)
	if _, err := cl.Register(ctx); err != nil {
		if ctx.Err() == nil {
			t.Errorf("worker %s: register: %v", id, err)
		}
		return
	}
	trained := make(map[string]*comfedsv.TrainedRun)
	for ctx.Err() == nil {
		lease, err := cl.Lease(ctx, time.Second)
		if err != nil || lease == nil {
			continue
		}
		task := lease.Task
		tr := trained[task.RunID]
		if tr == nil {
			run, err := runs.LoadRun(task.RunID)
			if err != nil {
				cl.Fail(ctx, lease.ID, err.Error())
				continue
			}
			tr = comfedsv.NewTrainedRun(run)
			trained[task.RunID] = tr
		}
		cells, err := comfedsv.ObserveSlice(ctx, tr, task.Budget, task.Seed, 2, task.Lo, task.Hi)
		if err != nil {
			cl.Fail(ctx, lease.ID, err.Error())
			continue
		}
		if err := cl.Complete(ctx, lease.ID, cells); err != nil && ctx.Err() == nil {
			t.Errorf("worker %s: complete: %v", id, err)
		}
	}
}

// registerRun posts the training payload as a shared run and waits for it
// to become ready, returning its content-addressed ID.
func registerRun(t *testing.T, base string, payload []byte) string {
	t.Helper()
	var created struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, base+"/v1/runs", payload, &created); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST /v1/runs: %d", code)
	}
	waitRunReady(t, base, created.ID)
	return created.ID
}

// mcJobBody is a run-backed Monte-Carlo submission with a sharded
// observation stage — the only remotable job shape.
func mcJobBody(t *testing.T, runID string, seed int64) []byte {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"run_id": runID,
		"options": map[string]any{
			"num_classes":         2,
			"rounds":              4,
			"clients_per_round":   2,
			"seed":                seed,
			"monte_carlo_samples": 30,
			"shards":              3,
			"parallelism":         2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDistributedObservationByteIdenticalWithWorkerLoss is the acceptance
// walkthrough of distributed observation: a run-backed Monte-Carlo job's
// shards are leased over the real HTTP surface to two workers, one of
// which is killed mid-shard (it takes a lease, reports a corrupt batch
// that the wire rejects, and goes silent); the lease expires, the shard
// is re-leased through the retry ladder to the healthy worker, and the
// final report is byte-identical to the same job executed entirely
// locally.
func TestDistributedObservationByteIdenticalWithWorkerLoss(t *testing.T) {
	payload, _, _, _ := tinyJob(37)
	const seed = 37

	// Baseline: same run, same job, no dispatcher — all shards local.
	localTS := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, t.TempDir())})
	localRun := registerRun(t, localTS.URL, payload)
	localID := submitAndWait(t, localTS.URL, mcJobBody(t, localRun, seed))
	code, want := getBody(t, localTS.URL+"/v1/jobs/"+localID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET local report: %d", code)
	}

	// Distributed daemon: short lease TTL so the killed worker's shard
	// re-leases quickly; quick retry ladder for the same reason.
	runsDir := t.TempDir()
	coord := dispatch.NewCoordinator(dispatch.Config{LeaseTTL: 400 * time.Millisecond, WorkerTTL: time.Hour})
	ts := dispatchDaemon(t, runsDir, coord, service.Config{
		Workers:        2,
		MaxTaskRetries: 5,
		RetryBaseDelay: 20 * time.Millisecond,
	})
	runID := registerRun(t, ts.URL, payload)
	if runID != localRun {
		t.Fatalf("content-addressed run IDs diverged: %s vs %s", runID, localRun)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The doomed worker registers first, so the job's shards go remote,
	// takes exactly one lease, and dies mid-shard without reporting.
	doomed := dispatch.NewClient(ts.URL, "doomed")
	if _, err := doomed.Register(ctx); err != nil {
		t.Fatalf("doomed register: %v", err)
	}

	var sub struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", mcJobBody(t, runID, seed), &sub); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d", code)
	}

	var doomedLease *dispatch.Lease
	deadline := time.Now().Add(30 * time.Second)
	for doomedLease == nil {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease — shards were not dispatched remotely")
		}
		l, err := doomed.Lease(ctx, 2*time.Second)
		if err != nil {
			t.Fatalf("doomed lease poll: %v", err)
		}
		doomedLease = l
	}
	// A batch whose digest does not verify is rejected at the wire with a
	// 400, and the lease stays active.
	corrupt := &utility.CellBatch{N: 4, Cells: []utility.SnapshotCell{{Round: 0, Mask: 0b1, Value: 0.5}}}
	corrupt.Stamp()
	corrupt.Cells[0].Value = 0.75
	if err := doomed.Complete(ctx, doomedLease.ID, corrupt); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("corrupt completion: %v, want 400 bad request", err)
	}

	// Killed mid-shard: no valid Complete, no Fail, no further polls. The
	// lease deadline is now the only way the shard comes back.

	// The healthy worker picks up the remaining shards and, once the
	// doomed lease expires, the re-leased one.
	go runWorker(ctx, t, ts.URL, "healthy", runsDir)

	waitJobDone(t, ts.URL, sub.ID)
	code, got := getBody(t, ts.URL+"/v1/jobs/"+sub.ID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET distributed report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("distributed report differs from all-local execution:\n%s\nvs\n%s", got, want)
	}

	st := coord.Stats()
	if st.LeasesCompleted != 3 {
		t.Fatalf("LeasesCompleted = %d, want 3 (one per shard)", st.LeasesCompleted)
	}
	if st.LeasesExpired == 0 {
		t.Fatal("no lease expired — the worker-loss path never ran")
	}

	// The straggler's late completion is rejected at the HTTP layer with a
	// 409 — its lease was revoked and the shard re-leased.
	straggler := &utility.CellBatch{N: 4, Cells: []utility.SnapshotCell{{Round: 0, Mask: 0b1, Value: 0.5}}}
	straggler.Stamp()
	err := doomed.Complete(ctx, doomedLease.ID, straggler)
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("straggler completion: %v, want 409 conflict", err)
	}

	// The dispatch metrics families are exported.
	code, metrics := getBody(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET metrics: %d", code)
	}
	for _, family := range []string{
		"comfedsvd_dispatch_workers_live",
		"comfedsvd_dispatch_leases_completed_total 3",
		"comfedsvd_dispatch_leases_expired_total",
	} {
		if !strings.Contains(string(metrics), family) {
			t.Errorf("metrics missing %q", family)
		}
	}
}

// TestDistributedObservationManyWorkersByteIdentical pins N-worker
// determinism: the same job leased across three healthy workers reports
// byte-identically to the all-local baseline.
func TestDistributedObservationManyWorkersByteIdentical(t *testing.T) {
	payload, _, _, _ := tinyJob(41)
	const seed = 41

	localTS := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, t.TempDir())})
	localRun := registerRun(t, localTS.URL, payload)
	localID := submitAndWait(t, localTS.URL, mcJobBody(t, localRun, seed))
	code, want := getBody(t, localTS.URL+"/v1/jobs/"+localID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET local report: %d", code)
	}

	runsDir := t.TempDir()
	coord := dispatch.NewCoordinator(dispatch.Config{WorkerTTL: time.Hour})
	ts := dispatchDaemon(t, runsDir, coord, service.Config{Workers: 2})
	runID := registerRun(t, ts.URL, payload)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		go runWorker(ctx, t, ts.URL, fmt.Sprintf("w%d", i), runsDir)
	}
	// Wait until at least one worker registered so the shards go remote
	// rather than falling back to local execution.
	deadline := time.Now().Add(10 * time.Second)
	for !coord.HasLiveWorkers() {
		if time.Now().After(deadline) {
			t.Fatal("no worker registered")
		}
		time.Sleep(time.Millisecond)
	}

	id := submitAndWait(t, ts.URL, mcJobBody(t, runID, seed))
	code, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET distributed report: %d", code)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("3-worker report differs from all-local execution:\n%s\nvs\n%s", got, want)
	}
	if st := coord.Stats(); st.LeasesCompleted != 3 {
		t.Fatalf("stats after clean distributed run: %+v", st)
	}
}

func mustRunStore(t *testing.T, dir string) *persist.RunStore {
	t.Helper()
	rs, err := persist.NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func waitJobDone(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st service.Status
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET status: %d", code)
		}
		if st.State.Terminal() {
			if st.State != service.StateDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("distributed job did not finish in time")
}

// TestRecoveredJobRejectsTamperedReLeasedShard pins the determinism
// check on the one-format wire. A recovered job re-leases its journaled
// shards; a worker ships one back as a re-stamped CellBatch with one
// altered value. The coordinator absorbs the batch into the job's own
// session and replays the shard locally, so the altered value reaches the
// shard's digest, and the job must fail with the journal's
// determinism-violation error naming that shard — never finish with a
// different report. The rejected cells must not outlive the job: a fresh
// job on the same run afterwards, run locally against the run's shared
// evaluator, reports exactly what the all-local job reports, and with the
// cell cache on the altered value never reaches the run's sidecar. The absorbed batch takes precedence over anything
// cached, so the check holds with the cache on as well as off. bigJob
// selects 22 clients, so FedSV's sampled baseline leaves the mid-sized
// coalitions the tamperer alters unevaluated.
func TestRecoveredJobRejectsTamperedReLeasedShard(t *testing.T) {
	const seed = 61
	localTS := testDaemon(t, service.Config{Workers: 2, RunStore: mustRunStore(t, t.TempDir())})
	localID := submitAndWait(t, localTS.URL, bigMCJobBody(t, registerRun(t, localTS.URL, bigJob(seed)), seed))
	code, local := getBody(t, localTS.URL+"/v1/jobs/"+localID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET all-local report: %d", code)
	}
	for _, cache := range []bool{false, true} {
		cache := cache
		t.Run(fmt.Sprintf("cell-cache=%v", cache), func(t *testing.T) {
			testTamperedReLease(t, seed, !cache, local)
		})
	}
}

func testTamperedReLease(t *testing.T, seed int64, noCache bool, local []byte) {
	jobsDir, runsDir := t.TempDir(), t.TempDir()
	jobs1, err := persist.NewJobStore(jobsDir)
	if err != nil {
		t.Fatal(err)
	}

	// The first daemon runs every shard locally and dies just before the
	// complete record, so every shard's digest is journaled.
	ts1, _ := crashableDaemon(t, service.Config{
		Workers:          2,
		Store:            jobs1,
		RunStore:         mustRunStore(t, runsDir),
		DisableCellCache: noCache,
		FaultHook:        faultinject.CrashNth(faultinject.OpJournalBefore, "complete", 1),
	})
	runID := registerRun(t, ts1.URL, bigJob(seed))
	id := submitOnly(t, ts1.URL, bigMCJobBody(t, runID, seed))
	st := pollUntil(t, ts1.URL, id, func(st service.Status) bool { return st.State.Terminal() })
	if st.State != service.StateFailed || !strings.Contains(st.Error, "simulated crash") {
		t.Fatalf("crashed job: state %s error %q", st.State, st.Error)
	}
	ts1.Close()

	// The tampering worker registers before the restarted manager starts,
	// so the recovered shards are leased instead of run locally.
	coord := dispatch.NewCoordinator(dispatch.Config{LeaseTTL: time.Minute, WorkerTTL: time.Hour})
	if err := coord.Register("tamper"); err != nil {
		t.Fatal(err)
	}
	jobs2, err := persist.NewJobStore(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := dispatchDaemon(t, runsDir, coord, service.Config{Workers: 2, Store: jobs2, DisableCellCache: noCache})

	run, err := mustRunStore(t, runsDir).LoadRun(runID)
	if err != nil {
		t.Fatal(err)
	}
	tr := comfedsv.NewTrainedRun(run)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type tamper struct {
		shard int
		cell  utility.SnapshotCell
	}
	tampered := make(chan tamper, 1)
	go func() {
		cl := dispatch.NewClient(ts2.URL, "tamper")
		first := true
		for ctx.Err() == nil {
			lease, err := cl.Lease(ctx, time.Second)
			if err != nil || lease == nil {
				continue
			}
			task := lease.Task
			cells, err := comfedsv.ObserveSlice(ctx, tr, task.Budget, task.Seed, 2, task.Lo, task.Hi)
			if err != nil {
				cl.Fail(ctx, lease.ID, err.Error())
				continue
			}
			if first {
				if c, ok := alterMidCoalition(cells, run.NumClients()); ok {
					first = false
					tampered <- tamper{task.Shard, c}
				}
			}
			cl.Complete(ctx, lease.ID, cells)
		}
	}()

	st = pollUntil(t, ts2.URL, id, func(st service.Status) bool { return st.State.Terminal() })
	var bad tamper
	select {
	case bad = <-tampered:
	default:
		t.Fatalf("no shard was tampered with; job ended %s (%s)", st.State, st.Error)
	}
	if st.State != service.StateFailed {
		t.Fatalf("job over a tampered shard ended %s, want failed", st.State)
	}
	if want := fmt.Sprintf("recovered shard %d ", bad.shard); !strings.Contains(st.Error, want) || !strings.Contains(st.Error, "determinism violation") {
		t.Fatalf("job error %q, want a determinism violation naming shard %d", st.Error, bad.shard)
	}
	if code, _ := getBody(t, ts2.URL+"/v1/jobs/"+id+"/report"); code == http.StatusOK {
		t.Fatal("a job over a tampered shard served a report")
	}

	// The same job submitted afresh on the same run must not inherit the
	// rejected value. With the worker gone its shards run locally, so
	// every cell comes from the run's shared evaluator.
	cancel()
	coord.Deregister("tamper")
	fresh := submitAndWait(t, ts2.URL, bigMCJobBody(t, runID, seed))
	code, got := getBody(t, ts2.URL+"/v1/jobs/"+fresh+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET fresh report: %d", code)
	}
	if !bytes.Equal(local, got) {
		t.Fatalf("fresh job after the rejected shard differs from the all-local report:\n%s\nvs\n%s", got, local)
	}
	batches, err := mustRunStore(t, runsDir).ReadCells(runID)
	if err != nil {
		t.Fatal(err)
	}
	if !noCache && len(batches) == 0 {
		t.Fatal("cell cache on, but the fresh job persisted no cells")
	}
	for _, b := range batches {
		for _, c := range b.Cells {
			if c.Round == bad.cell.Round && c.Mask == bad.cell.Mask && c.Value == bad.cell.Value {
				t.Fatalf("the rejected value of cell (round %d, mask %#x) reached the sidecar", c.Round, c.Mask)
			}
		}
	}
}

// alterMidCoalition changes the value of the batch's first cell whose
// coalition has between 2 and n-2 members, then re-stamps the batch so
// its digest verifies. It returns the altered cell and whether it found
// such a cell.
func alterMidCoalition(b *utility.CellBatch, n int) (utility.SnapshotCell, bool) {
	if b == nil {
		return utility.SnapshotCell{}, false
	}
	for i := range b.Cells {
		if k := bits.OnesCount64(b.Cells[i].Mask); k >= 2 && k <= n-2 {
			b.Cells[i].Value += 1
			c := b.Cells[i]
			b.Stamp()
			return c, true
		}
	}
	return utility.SnapshotCell{}, false
}
