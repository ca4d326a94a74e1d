package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"comfedsv"
	"comfedsv/internal/fl"
	"comfedsv/internal/mc"
	"comfedsv/internal/metrics"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

// fairnessJobs is how many jobs, by index, fairness_gap takes its median
// over; fixed so the metric is a pure function of the seed once a run
// completes that many jobs.
const fairnessJobs = 16

// fairnessBound fails a run whose median duplicate-pair relative
// difference exceeds it: identical data owners valued that differently
// means the valuation lost the fairness it exists for.
const fairnessBound = 0.5

// gtJobs is how many exact jobs, by index, are compared with GroundTruth.
const gtJobs = 3

// gtErrBound fails an exact run whose ComFedSV strays further than this
// from the fully observed ground truth (max abs error over max |truth|).
const gtErrBound = 1.5

// checkResult is one output check.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// checked is the outcome of a run's output checks, all made outside the
// timed window.
type checked struct {
	list       []checkResult
	reports    [][]byte // reports of succeeded jobs
	fairness   float64  // median ComFedSV duplicate-pair relative difference
	fedsvGap   float64  // the same for FedSV, for comparison
	gtErr      float64  // exact workloads; 0 where GroundTruth is infeasible
	fedsvGTErr float64  // the same for FedSV, for comparison
	columns    int      // distinct utility-matrix columns of the first job
}

func (c *checked) add(name string, ok bool, format string, args ...any) {
	c.list = append(c.list, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (c *checked) ok() bool {
	for _, r := range c.list {
		if !r.OK {
			return false
		}
	}
	return len(c.list) > 0
}

// reportJSON is the part of a report the checks read.
type reportJSON struct {
	FedSV           []float64 `json:"fedsv"`
	ComFedSV        []float64 `json:"comfedsv"`
	ObservedDensity float64   `json:"observed_density"`
	CompletionRMSE  float64   `json:"completion_rmse"`
	UtilityCalls    int       `json:"utility_calls"`
}

func decodeReport(b []byte) (reportJSON, error) {
	var r reportJSON
	err := json.Unmarshal(b, &r)
	return r, err
}

// check verifies every succeeded job's report, then re-values the
// lowest-index job serially through comfedsv.ValueRunCtx (cold workloads)
// and compares bytes, compares warm reports with their cold reports,
// measures fairness_gap, and, for exact workloads, gt_err.
func (b *bench) check(jobs []jobResult) checked {
	var c checked
	byIndex := map[int][]byte{}
	mismatches, firstDiff := 0, ""
	for _, r := range jobs {
		if r.Err != nil {
			continue
		}
		c.reports = append(c.reports, r.Report)
		if _, seen := byIndex[r.Index]; !seen {
			byIndex[r.Index] = r.Report
		}
		if b.warm() && !bytes.Equal(r.Report, b.coldReports[r.Index]) {
			if mismatches == 0 {
				firstDiff = fmt.Sprintf("; run %d differs in %v", r.Index, diffFields(r.Report, b.coldReports[r.Index]))
			}
			mismatches++
		}
	}
	if len(byIndex) == 0 {
		c.add("any_job_succeeded", false, "no valuation produced a report")
		return c
	}
	idx := make([]int, 0, len(byIndex))
	for i := range byIndex {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if b.warm() {
		c.add("warm_report_identical", mismatches == 0, "%d of %d warm reports differ from their runs' cold reports%s", mismatches, len(c.reports), firstDiff)
	}

	s := b.w.shape
	first := idx[0]
	fed := Generate(s, b.seed, first)
	ctx := context.Background()
	tr, err := comfedsv.TrainCtx(ctx, fed.Clients, fed.Test, s.TrainOptions(fed.Seed))
	if err != nil {
		c.add("serial_revalue", false, "training job %d: %v", first, err)
		return c
	}
	if !b.warm() {
		rep, _, err := comfedsv.ValueRunCtx(ctx, tr, s.JobOptions(fed.Seed))
		if err != nil {
			c.add("serial_revalue_identical", false, "job %d: %v", first, err)
		} else {
			body, _ := json.MarshalIndent(rep, "", "  ")
			same := bytes.Equal(append(body, '\n'), byIndex[first])
			c.add("serial_revalue_identical", same, "job %d re-valued through comfedsv.ValueRunCtx: identical=%v", first, same)
		}
	}
	c.columns = distinctColumns(ctx, s, tr.Run(), fed.Seed)

	var gaps, fedsvGaps []float64
	for _, i := range idx {
		if len(gaps) == fairnessJobs {
			break
		}
		rep, err := decodeReport(byIndex[i])
		if err != nil || len(rep.ComFedSV) < 2 || len(rep.FedSV) < 2 {
			c.add("report_decodes", false, "job %d: %v", i, err)
			return c
		}
		gaps = append(gaps, metrics.RelativeDifference(rep.ComFedSV[0], rep.ComFedSV[1]))
		fedsvGaps = append(fedsvGaps, metrics.RelativeDifference(rep.FedSV[0], rep.FedSV[1]))
	}
	c.fairness, c.fedsvGap = median(gaps), median(fedsvGaps)
	c.add("fairness_gap", c.fairness <= fairnessBound,
		"median ComFedSV relative difference of the duplicate pair = %.4f over %d jobs (bound %.2f; FedSV %.4f)",
		c.fairness, len(gaps), fairnessBound, c.fedsvGap)

	if s.Permutations == 0 {
		var errs, fedsvErrs []float64
		for _, i := range idx {
			if len(errs) == gtJobs {
				break
			}
			e, fe, err := b.gtErr(ctx, i, byIndex[i])
			if err != nil {
				c.add("gt_err", false, "job %d: %v", i, err)
				return c
			}
			errs = append(errs, e)
			fedsvErrs = append(fedsvErrs, fe)
		}
		c.gtErr, c.fedsvGTErr = median(errs), median(fedsvErrs)
		c.add("gt_err", c.gtErr <= gtErrBound, "median max|ComFedSV-GroundTruth|/max|GroundTruth| = %.4f over %d jobs (bound %.2f; FedSV %.4f)",
			c.gtErr, len(errs), gtErrBound, c.fedsvGTErr)
	}
	return c
}

// diffFields names the top-level report fields whose encodings differ.
func diffFields(a, b []byte) []string {
	var ma, mb map[string]json.RawMessage
	if json.Unmarshal(a, &ma) != nil || json.Unmarshal(b, &mb) != nil {
		return []string{"(undecodable)"}
	}
	var out []string
	for k, v := range ma {
		if !bytes.Equal(v, mb[k]) {
			out = append(out, k)
		}
	}
	for k := range mb {
		if _, ok := ma[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// gtErr trains job i's federation again and compares the report's
// ComFedSV (and FedSV) with shapley.GroundTruth on the fully observed
// utility matrix: max |value − truth| over max |truth|.
func (b *bench) gtErr(ctx context.Context, i int, report []byte) (comErr, fedsvErr float64, err error) {
	s := b.w.shape
	fed := Generate(s, b.seed, i)
	tr, err := comfedsv.TrainCtx(ctx, fed.Clients, fed.Test, s.TrainOptions(fed.Seed))
	if err != nil {
		return 0, 0, err
	}
	rep, err := decodeReport(report)
	if err != nil {
		return 0, 0, err
	}
	gt := shapley.GroundTruth(utility.NewEvaluator(tr.Run()))
	if len(gt) != len(rep.ComFedSV) || len(gt) != len(rep.FedSV) {
		return 0, 0, fmt.Errorf("%d ground-truth values for %d clients", len(gt), len(rep.ComFedSV))
	}
	maxGT := 0.0
	for _, v := range gt {
		maxGT = math.Max(maxGT, math.Abs(v))
	}
	if maxGT == 0 {
		return 0, 0, fmt.Errorf("ground truth is all zero")
	}
	rel := func(vals []float64) float64 {
		e := 0.0
		for k := range gt {
			e = math.Max(e, math.Abs(vals[k]-gt[k]))
		}
		return e / maxGT
	}
	return rel(rep.ComFedSV), rel(rep.FedSV), nil
}

// distinctColumns counts the utility-matrix columns a job's plan observes:
// every coalition for the exact pipeline, the distinct permutation
// prefixes for Monte-Carlo (sampled as the job samples them, seed + 1,
// over a source that evaluates nothing).
func distinctColumns(ctx context.Context, s Shape, run *fl.Run, seed int64) int {
	if s.Permutations == 0 {
		return 1<<s.Clients - 1
	}
	cfg := mc.DefaultConfig(1)
	cfg.MaxIter, cfg.Restarts = 1, 1
	res, err := shapley.MonteCarloCtx(ctx, zeroSource{run}, shapley.MonteCarloConfig{
		Samples: s.Permutations, Completion: cfg, Seed: seed + 1, Workers: 1,
	})
	if err != nil {
		return 0
	}
	return res.Store.NumColumns()
}

// zeroSource is a utility.Source whose every utility is 0: enough to walk
// an observation plan without paying for test-loss evaluations.
type zeroSource struct{ run *fl.Run }

func (z zeroSource) Run() *fl.Run                     { return z.run }
func (z zeroSource) Utility(int, utility.Set) float64 { return 0 }
func (z zeroSource) Calls() int                       { return 0 }
func (z zeroSource) UtilityBatchCtx(_ context.Context, cells []utility.Cell, _ int) ([]float64, error) {
	return make([]float64, len(cells)), nil
}

// reportMedians returns the median observed density and utility-call
// count over reports.
func reportMedians(reports [][]byte) (density, calls float64) {
	var ds, cs []float64
	for _, b := range reports {
		if r, err := decodeReport(b); err == nil {
			ds = append(ds, r.ObservedDensity)
			cs = append(cs, float64(r.UtilityCalls))
		}
	}
	return median(ds), median(cs)
}
