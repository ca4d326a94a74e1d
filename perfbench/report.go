package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"comfedsv"
)

// endToEnd turns the untraced closed loop into the result line.
func (b *bench) endToEnd(ph phaseOut, chk checked) (result, map[string]any) {
	ok := ph.ok()
	var walls []float64
	for _, r := range ok {
		walls = append(walls, r.Wall.Seconds())
	}
	tailV, tailP, beyond := tail(walls)
	attempted := len(ph.jobs)
	perJob := func(x float64) float64 { return x / math.Max(1, float64(len(ok))) }
	res := result{
		Correct:   chk.ok(),
		Attempted: attempted,
		Failed:    attempted - len(ok),
		Metrics: map[string]metric{
			"job_s_p50":     {median(walls), "s"},
			"job_s_tail":    {tailV, "s"},
			"jobs_per_s":    {ph.throughput(), "1/s"},
			"ok_frac":       {float64(len(ok)) / math.Max(1, float64(attempted)), "ratio"},
			"cpu_s_per_job": {perJob(ph.cpu), "s"},
			"peak_rss_mb":   {median(ph.peaks), "MiB"},
			"setup_s":       {median(b.setups), "s"},
		},
	}
	info := map[string]any{
		"workload":           b.name,
		"seed":               b.seed,
		"inputs":             b.inputsInfo(chk.reports, chk.columns),
		"tail":               map[string]any{"percentile": tailP, "samples": len(walls), "beyond": beyond},
		"checks":             chk.list,
		"setups_s":           b.setups,
		"errors":             jobErrors(ph.jobs),
		"jobs":               jobSummaries(ok),
		"peak_rss_reset":     b.peakReset,
		"fairness_gap":       metric{chk.fairness, "ratio"},
		"fedsv_fairness_gap": metric{chk.fedsvGap, "ratio"},
	}
	if b.w.shape.Permutations == 0 {
		info["gt_err"] = metric{chk.gtErr, "ratio"}
	}
	return res, info
}

// jobSummaries lists each succeeded job's index, turnaround and
// utility-call count, by index.
func jobSummaries(jobs []jobResult) [][3]float64 {
	out := make([][3]float64, 0, len(jobs))
	for _, r := range jobs {
		rep, _ := decodeReport(r.Report)
		out = append(out, [3]float64{float64(r.Index), r.Wall.Seconds(), float64(rep.UtilityCalls)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func jobErrors(jobs []jobResult) []string {
	var out []string
	for _, r := range jobs {
		if r.Err != nil && len(out) < 5 {
			out = append(out, r.Err.Error())
		}
	}
	return out
}

// runTraced is the --trace 1 run. Four phases share the time budget:
//
//	A  untraced HTTP closed loop, 2 clients   (reference for the overhead)
//	B  traced HTTP closed loop, 2 clients     (api spans, status, counters)
//	C  in-process Manager.Submit, 2 clients   (OnStageTime stage spans)
//	D  in-process Manager.Submit, 1 client    (uncontended reference)
func (b *bench) runTraced(dur time.Duration) (result, map[string]any, error) {
	share := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }
	specs := []phaseSpec{
		{clients: 2, dur: share(0.25)},
		{clients: 2, dur: share(0.25), traced: true},
		{clients: 2, dur: share(0.3), traced: true, inproc: true},
		{clients: 1, dur: share(0.2), traced: true, inproc: true},
	}
	var ph [4]phaseOut
	var all []jobResult
	for i, ps := range specs {
		out, err := b.phase(ps)
		if err != nil {
			return result{}, nil, err
		}
		ph[i] = out
		all = append(all, out.jobs...)
	}
	if err := writeSpans(b.spansOut, all); err != nil {
		return result{}, nil, err
	}
	chk := b.check(all)
	m := perLayer(ph, chk)
	closure := m["trace.closure_err"].Value
	chk.add("trace_closure", closure <= closureBound,
		"stage self times + service.unattributed_s miss job wall time by at most %.4f of it (bound %.2f)", closure, closureBound)
	okCount := 0
	for _, r := range all {
		if r.Err == nil {
			okCount++
		}
	}
	res := result{Correct: chk.ok(), Attempted: len(all), Failed: len(all) - okCount, Metrics: m}
	info := map[string]any{
		"workload": b.name,
		"seed":     b.seed,
		"inputs":   b.inputsInfo(chk.reports, chk.columns),
		"checks":   chk.list,
		"phases": map[string]int{
			"A_untraced_http": len(ph[0].jobs), "B_traced_http": len(ph[1].jobs),
			"C_inproc_2clients": len(ph[2].jobs), "D_inproc_1client": len(ph[3].jobs),
		},
		"errors": jobErrors(all),
	}
	return res, info, nil
}

// writeSpans writes every traced span, one JSON object a line.
func writeSpans(path string, jobs []jobResult) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range jobs {
		for _, s := range r.Spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// closureBound is how far, as a share of job wall time, the traced stage
// self times plus unattributed time may miss the wall time.
const closureBound = 0.05

// stageTimes are one in-process job's per-stage self times, derived from
// its OnStageTime spans.
type stageTimes struct {
	wall, train, fedsv, observe, observeSpan, complete, extract, unattributed, closure float64
}

// stagesOf derives a job's stage self times. Stages do not nest, so a
// stage's self time is the length of the union of its spans (parallel
// observation shards count once); unattributed time is the part of the
// job's wall time no stage span covers. closure is how far the stage
// unions plus unattributed time miss the wall time, as a share of it —
// nonzero only where spans of different stages overlap.
func stagesOf(r jobResult) stageTimes {
	var job span
	byStage := map[string][]span{}
	var stages []span
	for _, s := range r.Spans {
		if s.Name == "job" {
			job = s
			continue
		}
		byStage[s.Name] = append(byStage[s.Name], s)
		stages = append(stages, s)
	}
	st := stageTimes{wall: job.seconds()}
	st.train = unionSeconds(byStage[comfedsv.StageTrain])
	st.fedsv = unionSeconds(byStage[comfedsv.StageFedSV])
	st.observeSpan = unionSeconds(byStage[comfedsv.StageObserve])
	for _, s := range byStage[comfedsv.StageObserve] {
		st.observe += s.seconds()
	}
	st.complete = unionSeconds(byStage[comfedsv.StageComplete])
	st.extract = unionSeconds(byStage[comfedsv.StageShapley])
	st.unattributed = st.wall - unionSeconds(clip(stages, job))
	self := st.train + st.fedsv + st.observeSpan + st.complete + st.extract
	if st.wall > 0 {
		st.closure = math.Abs(self+st.unattributed-st.wall) / st.wall
	}
	return st
}

// clip trims spans to the window of w.
func clip(spans []span, w span) []span {
	var out []span
	for _, s := range spans {
		if s.Start.Before(w.Start) {
			s.Start = w.Start
		}
		if s.End.After(w.End) {
			s.End = w.End
		}
		if s.End.After(s.Start) {
			out = append(out, s)
		}
	}
	return out
}

// unionSeconds is the total length covered by the spans.
func unionSeconds(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	total := 0.0
	cur := s[0]
	for _, x := range s[1:] {
		if x.Start.After(cur.End) {
			total += cur.seconds()
			cur = x
			continue
		}
		if x.End.After(cur.End) {
			cur.End = x.End
		}
	}
	return total + cur.seconds()
}

// perLayer derives the per-layer metrics of a traced run from its phases.
func perLayer(ph [4]phaseOut, chk checked) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{v, unit}
	}
	walls := func(p phaseOut) []float64 {
		var w []float64
		for _, r := range p.ok() {
			w = append(w, r.Wall.Seconds())
		}
		return w
	}

	// api: the benchmark's own HTTP spans (phase B).
	var submit, report, requests []float64
	errorsTotal := 0
	for _, p := range ph[:2] {
		for _, r := range p.jobs {
			errorsTotal += r.Errors
		}
	}
	for _, r := range ph[1].ok() {
		sub, rep := 0.0, 0.0
		for _, s := range r.Spans {
			switch s.Name {
			case "api.post_run", "api.post_job":
				sub += s.seconds()
			case "api.get_report":
				rep += s.seconds()
			}
		}
		submit = append(submit, sub)
		report = append(report, rep)
		requests = append(requests, float64(r.Requests))
	}
	put("api.submit_s", "s", median(submit))
	put("api.report_s", "s", median(report))
	put("api.requests", "count", mean(requests))
	put("api.errors", "count", float64(errorsTotal))

	// service: job status (phases B–D) and scheduler counters.
	var wait []float64
	task := map[string][]float64{}
	for _, p := range ph[1:] {
		for _, r := range p.ok() {
			if r.Status.StartedAt != nil {
				wait = append(wait, r.Status.StartedAt.Sub(r.Status.SubmittedAt).Seconds())
			}
			for _, stage := range []string{"prepare", "observe", "complete", "shapley"} {
				task[stage] = append(task[stage], r.Status.StageSeconds[stage])
			}
		}
	}
	put("service.queue_wait_s", "s", median(wait))
	for _, stage := range []string{"prepare", "observe", "complete", "shapley"} {
		put("service.task_s."+stage, "s", median(task[stage]))
	}
	counters := map[string]float64{}
	traced := 0
	for _, p := range ph[1:] {
		for k, v := range p.counters {
			counters[k] += v
		}
		traced += len(p.ok())
	}
	perJob := func(k string) float64 { return counters[k] / math.Max(1, float64(traced)) }
	put("service.retries", "count", counters["comfedsvd_task_retries_total"])

	// Stage spans from OnStageTime (phase C, and D as the reference).
	stageMedians := func(p phaseOut) stageTimes {
		var cols [9][]float64
		for _, r := range p.ok() {
			st := stagesOf(r)
			for i, v := range []float64{st.wall, st.train, st.fedsv, st.observe, st.observeSpan, st.complete, st.extract, st.unattributed, st.closure} {
				cols[i] = append(cols[i], v)
			}
		}
		return stageTimes{median(cols[0]), median(cols[1]), median(cols[2]), median(cols[3]), median(cols[4]),
			median(cols[5]), median(cols[6]), median(cols[7]), quantile(cols[8], 1)}
	}
	c, d := stageMedians(ph[2]), stageMedians(ph[3])
	put("service.unattributed_s", "s", c.unattributed)
	put("fl.train_s", "s", c.train)
	put("shapley.fedsv_s", "s", c.fedsv)
	put("shapley.observe_s", "s", c.observe)
	put("shapley.observe_span_s", "s", c.observeSpan)
	put("shapley.extract_s", "s", c.extract)
	put("mc.complete_s", "s", c.complete)
	put("trace.closure_err", "ratio", c.closure)

	// utility: each job's cache ledger from its status (the per-run
	// /v1/metrics series vanish with deleted runs) and the warm-hit counter.
	hits, misses := 0.0, 0.0
	for _, p := range ph[1:] {
		for _, r := range p.ok() {
			if cs := r.Status.CacheStats; cs != nil {
				hits += float64(cs.Hits)
				misses += float64(cs.Misses)
			}
		}
	}
	jobs := math.Max(1, float64(traced))
	put("utility.test_loss_evals", "count", misses/jobs)
	put("utility.memo_hits", "count", hits/jobs)
	put("utility.warm_hits", "count", perJob("comfedsvd_cellcache_hit_total"))
	put("utility.hit_rate", "ratio", hits/(hits+misses))
	cEvals, cEvalTime := 0.0, 0.0
	for _, r := range ph[2].ok() {
		st := stagesOf(r)
		cEvalTime += st.fedsv + st.observe
		if cs := r.Status.CacheStats; cs != nil {
			cEvals += float64(cs.Misses)
		}
	}
	put("utility.eval_us", "us", 1e6*cEvalTime/cEvals)

	// shapley and mc: report fields.
	var cells, rmse, density []float64
	for _, rb := range chk.reports {
		if r, err := decodeReport(rb); err == nil {
			cells = append(cells, float64(r.UtilityCalls))
			rmse = append(rmse, r.CompletionRMSE)
			density = append(density, r.ObservedDensity)
		}
	}
	put("shapley.cells", "count", median(cells))
	put("mc.rmse", "utility", median(rmse))
	put("mc.density", "ratio", median(density))

	// persist: counters plus the benchmark's own probes of the runs-dir.
	var sidecar, load []float64
	for _, p := range ph[1:] {
		for _, r := range p.ok() {
			sidecar = append(sidecar, r.SidecarBytes)
			if r.LoadSeconds > 0 {
				load = append(load, r.LoadSeconds)
			}
		}
	}
	put("persist.cells_appended", "count", perJob("comfedsvd_cellcache_persisted_total"))
	put("persist.sidecar_bytes", "bytes", median(sidecar))
	put("persist.cells_preloaded", "count", perJob("comfedsvd_cellcache_preloaded_total"))
	put("persist.load_s", "s", median(load))
	put("persist.corrupt", "count", counters["comfedsvd_cellcache_corrupt_total"])

	// dispatch: coordinator counters.
	put("dispatch.leases", "count", perJob("comfedsvd_dispatch_leases_granted_total"))
	put("dispatch.leases_expired", "count", counters["comfedsvd_dispatch_leases_expired_total"])
	put("dispatch.remote_frac", "ratio", counters["comfedsvd_dispatch_leases_completed_total"]/counters["comfedsvd_tasks_executed_total.observe"])
	put("dispatch.digest_mismatches", "count", counters["comfedsvd_dispatch_digest_mismatches_total"])

	put("quality.gt_err", "ratio", chk.gtErr)
	put("quality.fairness_gap", "ratio", chk.fairness)
	put("quality.fedsv_fairness_gap", "ratio", chk.fedsvGap)
	put("trace.overhead_s", "s", median(walls(ph[1]))-median(walls(ph[0])))
	put("trace.jobs", "count", float64(traced))

	// One-client reference (phase D).
	put("ref1.job_s_p50", "s", d.wall)
	put("ref1.fl.train_s", "s", d.train)
	put("ref1.shapley.fedsv_s", "s", d.fedsv)
	put("ref1.shapley.observe_span_s", "s", d.observeSpan)
	put("ref1.mc.complete_s", "s", d.complete)
	put("ref1.shapley.extract_s", "s", d.extract)
	put("ref1.service.unattributed_s", "s", d.unattributed)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
