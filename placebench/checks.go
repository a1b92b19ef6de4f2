package main

import (
	"fmt"
	"math"
	"sync"

	"repro/byom"
)

// ledger holds totals the benchmark computes itself from the held-out
// jobs and the cost model, apart from the simulator and the daemons.
type ledger struct {
	tcoHDD       float64 // Σ TCOHDD(j): the all-HDD baseline
	savingsBound float64 // Σ max(0, Savings(j)): no placement saves more
	savingsAll   float64 // Σ Savings(j): what putting every job wholly on SSD saves
}

func newLedger(jobs []*byom.Job, cm *byom.CostModel) ledger {
	var l ledger
	for _, j := range jobs {
		l.tcoHDD += cm.TCOHDD(j)
		s := cm.Savings(j)
		l.savingsAll += s
		l.savingsBound += max(0, s)
	}
	return l
}

// relTol is the rounding allowance for sums of ~1e4 float64 terms taken
// in a different order.
const relTol = 1e-9

func near(got, want, scale float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(scale))
}

// checkSimTotals checks one replay against the ledger: the baseline TCO
// equals the benchmark's own sum, savings stay below the bound every
// partial placement obeys (PartialSavings ≤ max(0, Savings)), and the
// SSD ledger never rose above the quota.
func checkSimTotals(res *byom.SimResult, l ledger, quota float64) error {
	if !near(res.TotalTCOHDD, l.tcoHDD, l.tcoHDD) {
		return fmt.Errorf("%s at quota %.6g: TotalTCOHDD %.9g, benchmark sum %.9g", res.PolicyName, quota, res.TotalTCOHDD, l.tcoHDD)
	}
	if res.TCOSaved > l.savingsBound+relTol*math.Max(1, l.savingsBound) {
		return fmt.Errorf("%s at quota %.6g: TCOSaved %.9g above Σ max(0, Savings) %.9g", res.PolicyName, quota, res.TCOSaved, l.savingsBound)
	}
	if res.SSDPeakUsed > quota*(1+relTol) {
		return fmt.Errorf("%s at quota %.6g: SSD peak %.9g above the quota", res.PolicyName, quota, res.SSDPeakUsed)
	}
	return nil
}

// checkFullFit checks FirstFit at a quota no job can overflow: every job
// fits whole, so the savings are exactly Σ Savings(j) up to rounding.
func checkFullFit(res *byom.SimResult, l ledger) error {
	scale := l.savingsBound + (l.savingsBound - l.savingsAll) // Σ|Savings|
	if !near(res.TCOSaved, l.savingsAll, scale) {
		return fmt.Errorf("FirstFit at full quota saved %.9g, Σ Savings is %.9g", res.TCOSaved, l.savingsAll)
	}
	return nil
}

// checkDecisions checks served decisions against the benchmark's own
// pointer-tree predictions (CategoryModel.Predict over the in-process
// encoder, sharing nothing with the Forest, Binner, wire codec or
// router), the published model version, and the echoed job IDs in order.
func checkDecisions(ds []byom.WireDecision, jobs []*byom.Job, want []int, version int) error {
	if len(ds) != len(jobs) {
		return fmt.Errorf("got %d decisions for %d jobs", len(ds), len(jobs))
	}
	for i, d := range ds {
		switch {
		case d.JobID != jobs[i].ID:
			return fmt.Errorf("decision %d echoes job %q, sent %q", i, d.JobID, jobs[i].ID)
		case d.ModelVersion != version:
			return fmt.Errorf("job %s served by model v%d, published v%d", d.JobID, d.ModelVersion, version)
		case d.Category != want[i]:
			return fmt.Errorf("job %s served category %d, CategoryModel.Predict gives %d", d.JobID, d.Category, want[i])
		}
	}
	return nil
}

// checkConservation checks the daemons' counters against what the
// benchmark sent: every job decided once, every outcome observed once.
func checkConservation(submitted, sent, observed, posted int64) error {
	if submitted != sent {
		return fmt.Errorf("daemons decided %d jobs, benchmark sent %d", submitted, sent)
	}
	if observed != posted {
		return fmt.Errorf("daemons observed %d outcomes, benchmark posted %d", observed, posted)
	}
	return nil
}

// checker collects failed checks from any goroutine.
type checker struct {
	mu       sync.Mutex
	failures []string
	count    int
}

func (c *checker) add(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, err.Error())
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count == 0
}
