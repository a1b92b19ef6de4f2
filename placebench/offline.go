package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/byom"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// timedPolicy wraps the policy under test and times the calls sim makes
// into it. A batch sample is the replaying thread's CPU time from the
// start of one Place call to the end of the 64th after it (sim's own
// bookkeeping between the calls, ~1% of it, included): the deciding
// loop is pinned to its thread and has nothing to wait for, so CPU time
// is its decision time without the hypervisor's interruptions. A traced
// round also sums the wall time inside Place and Observe. Eviction is
// forwarded, and returns 0 (no eviction) when the inner policy has none,
// which is what sim does for a policy without the extension.
type timedPolicy struct {
	inner byom.Policy
	seg   *segment

	calls      int
	batchStart time.Duration
	placeNs    time.Duration
	obsNs      time.Duration
	traced     bool
}

type observer interface {
	Observe(j *byom.Job, o byom.Outcome)
}

type evictor interface {
	EvictAfter(j *byom.Job) float64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Place(j *byom.Job, ctx sim.PlaceContext) bool {
	if p.calls%batchJobs == 0 {
		p.batchStart = threadCPU()
	}
	if !p.traced {
		admit := p.inner.Place(j, ctx)
		p.endCall()
		return admit
	}
	t := time.Now()
	admit := p.inner.Place(j, ctx)
	p.placeNs += time.Since(t)
	p.endCall()
	return admit
}

func (p *timedPolicy) endCall() {
	if p.calls++; p.calls%batchJobs == 0 {
		p.seg.BatchMs = append(p.seg.BatchMs, float64(threadCPU()-p.batchStart)/1e6)
	}
}

func (p *timedPolicy) Observe(j *byom.Job, o byom.Outcome) {
	ob, ok := p.inner.(observer)
	if !ok {
		return
	}
	if !p.traced {
		ob.Observe(j, o)
		return
	}
	t := time.Now()
	ob.Observe(j, o)
	p.obsNs += time.Since(t)
}

func (p *timedPolicy) EvictAfter(j *byom.Job) float64 {
	if ev, ok := p.inner.(evictor); ok {
		return ev.EvictAfter(j)
	}
	return 0
}

// offlineLayer accumulates the traced rounds' per-layer times.
type offlineLayer struct {
	sweeps int
	placeS float64
	selfS  float64
	solveS float64
	solves int64
}

// runOffline is the paper's evaluation path: the held-out half replayed
// through sim under AdaptiveRanking and AdaptiveRanking+Rebalance at
// every quota of the SSD-quota sweep. One round is one whole sweep, and
// each quota point of it one segment; the estimator picks among the
// rounds' segments of each quota point, so its pool covers every quota.
func runOffline(cfg runConfig, in *inputs, ck *checker) (*workloadRun, error) {
	wr := &workloadRun{setup: setup(), ratePhase: "sweep", latPhase: "sweep", extra: map[string]float64{}}
	wr.heapMiB = liveHeapMiB()
	led := newLedger(in.test.Jobs, in.cm)
	// The sweep runs on this goroutine; pinning it to one thread makes
	// the thread's CPU time the sweep's.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	var first []float64 // the first sweep's savings, which every later sweep must repeat
	var layer offlineLayer
	err := rounds(cfg.scale.roundCount(cfg.seconds), &wr.heapMiB, func(i int) error {
		traced := cfg.traced && i%2 == 1
		var savings []float64
		for qi, frac := range experiments.QuotaFractions {
			seg, err := measureSegment("sweep", traced, func(seg *segment) error {
				seg.Point = qi
				s, err := quotaPoint(in, led, frac, seg, traced, &layer, ck)
				savings = append(savings, s...)
				return err
			})
			if err != nil {
				return err
			}
			wr.segs = append(wr.segs, seg)
			wr.attempted += int64(seg.Decisions)
		}
		if traced {
			layer.sweeps++
		}
		if first == nil {
			first = savings
			return nil
		}
		for k := range savings {
			if savings[k] != first[k] {
				ck.add(fmt.Errorf("sweep %d: point %d saved %.9g%%, sweep 0 saved %.9g%%", i, k, savings[k], first[k]))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	quotas := experiments.QuotaFractions
	var ar, rb float64
	for qi := range quotas {
		ar += first[2*qi]
		rb += first[2*qi+1]
	}
	wr.tcoPct = ar / float64(len(quotas))
	wr.extra["tco_savings_pct_rebalance"] = rb / float64(len(quotas))

	// FirstFit at a quota above the held-out peak: every job fits whole.
	full := in.peak*(1+1e-6) + 1
	res, err := byom.Simulate(in.test, byom.NewFirstFitPolicy(), in.cm, byom.SimConfig{SSDQuota: full})
	if err != nil {
		return nil, fmt.Errorf("full-fit replay: %w", err)
	}
	wr.attempted += int64(len(in.test.Jobs))
	ck.add(checkSimTotals(res, led, full))
	ck.add(checkFullFit(res, led))

	if cfg.traced && layer.sweeps > 0 {
		n := float64(layer.sweeps)
		wr.layer = map[string]float64{
			"policy.place_s":               layer.placeS / n,
			"sim.self_s":                   layer.selfS / n,
			"rebalance.solve_s":            layer.solveS / n,
			"rebalance.solve_ms_per_solve": 0,
		}
		if layer.solves > 0 {
			wr.layer["rebalance.solve_ms_per_solve"] = 1000 * layer.solveS / float64(layer.solves)
		}
		for k, v := range notOnPath(offlinePath) {
			wr.layer[k] = v
		}
	}
	return wr, nil
}

// quotaPoint is one segment of the sweep: the held-out trace replayed
// at one quota under both policies. It returns each replay's TCO
// savings percentage.
func quotaPoint(in *inputs, led ledger, frac float64, seg *segment, traced bool, layer *offlineLayer, ck *checker) ([]float64, error) {
	quota := frac * in.peak
	ar, err := byom.NewAdaptiveRankingPolicy(in.model, in.cm)
	if err != nil {
		return nil, err
	}
	inner, err := byom.NewAdaptiveRankingPolicy(in.model, in.cm)
	if err != nil {
		return nil, err
	}
	rb := byom.NewRebalancePolicy(inner, in.cm, byom.RebalanceConfig{})
	var savings []float64
	for _, p := range []byom.Policy{ar, rb} {
		tp := &timedPolicy{inner: p, seg: seg, traced: traced}
		t := time.Now()
		res, err := byom.Simulate(in.test, tp, in.cm, byom.SimConfig{SSDQuota: quota})
		if err != nil {
			return nil, fmt.Errorf("%s at quota %g: %w", p.Name(), frac, err)
		}
		wall := time.Since(t)
		seg.Decisions += len(in.test.Jobs)
		ck.add(checkSimTotals(res, led, quota))
		savings = append(savings, res.TCOSavingsPercent())
		if traced {
			layer.placeS += tp.placeNs.Seconds()
			layer.selfS += (wall - tp.placeNs - tp.obsNs).Seconds()
		}
	}
	if traced {
		h := rb.SolveLatency()
		layer.solveS += float64(h.Sum) / 1e9
		layer.solves += h.Count
	}
	return savings, nil
}

// Per-layer metrics of layers a workload does not exercise read 0, so
// every traced run reports the same names. Which layers each workload
// runs is listed in README.md.
var (
	offlinePath = []string{"policy.", "sim.", "rebalance."}
	servingPath = []string{"policy.", "sim.", "serve.", "rpc."}
	routedPath  = []string{"policy.", "sim.", "serve.", "rpc.", "router."}
)

// notOnPath returns 0 for every per-layer metric outside the workload's
// path that the workload itself does not compute (isolation passes and
// runtime metrics apply to all workloads).
func notOnPath(path []string) map[string]float64 {
	common := []string{"trace.", "features.", "gbdt.", "core.", "runtime.", "obs."}
	out := map[string]float64{}
	for _, d := range perLayer {
		if hasPrefix(d.name, common) || hasPrefix(d.name, path) {
			continue
		}
		out[d.name] = 0
	}
	return out
}

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
