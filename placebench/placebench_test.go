package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/byom"
)

// tiny is a scale every workload finishes in a few seconds at.
var tiny = scale{days: 2, users: 6, roundS: 1e9, minRounds: 2, latencyReqs: 3, throughputReqs: 2}

func tinyInputs(t *testing.T) *inputs {
	t.Helper()
	in, err := prepare(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []metricDef
		want []def
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: program reports %d metrics, BENCHMARK.json declares %d", c.kind, len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i].name != c.want[i].Name || c.got[i].unit != c.want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestWorkloadsRunToEnd runs every workload untraced and traced at a
// tiny size: every check passes, nothing fails, and each run reports
// every metric of its kind.
func TestWorkloadsRunToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, rec, err := run(runConfig{workload: w, seed: 7, traced: traced, scale: tiny})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%v", w, traced, res.Correct, res.Attempted, res.Failed, rec.Checks)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, d.name)
				}
			}
			if !traced && res.Metrics["tco_savings_pct"].Value <= 0 {
				t.Errorf("%s: tco_savings_pct %v, want > 0", w, res.Metrics["tco_savings_pct"].Value)
			}
		}
	}
}

// TestSimChecksRejectCorruptResults feeds the offline checks a real
// replay, then the same replay with one figure corrupted.
func TestSimChecksRejectCorruptResults(t *testing.T) {
	in := tinyInputs(t)
	led := newLedger(in.test.Jobs, in.cm)
	quota := 0.05 * in.peak
	p, err := byom.NewAdaptiveRankingPolicy(in.model, in.cm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := byom.Simulate(in.test, p, in.cm, byom.SimConfig{SSDQuota: quota})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSimTotals(res, led, quota); err != nil {
		t.Fatalf("real replay rejected: %v", err)
	}
	for name, corrupt := range map[string]func(r *byom.SimResult){
		"inflated TCOSaved":    func(r *byom.SimResult) { r.TCOSaved = led.savingsBound * 1.01 },
		"wrong TotalTCOHDD":    func(r *byom.SimResult) { r.TotalTCOHDD *= 1.000001 },
		"SSD peak above quota": func(r *byom.SimResult) { r.SSDPeakUsed = quota * 1.001 },
	} {
		bad := *res
		corrupt(&bad)
		if checkSimTotals(&bad, led, quota) == nil {
			t.Errorf("%s: check passed", name)
		}
	}

	full := in.peak*(1+1e-6) + 1
	ff, err := byom.Simulate(in.test, byom.NewFirstFitPolicy(), in.cm, byom.SimConfig{SSDQuota: full})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFullFit(ff, led); err != nil {
		t.Fatalf("real full-fit replay rejected: %v", err)
	}
	bad := *ff
	bad.TCOSaved *= 1.001
	if checkFullFit(&bad, led) == nil {
		t.Error("full-fit check passed an inflated TCOSaved")
	}
}

// TestServingChecksRejectCorruptDecisions takes real decisions and
// counters from a JSON daemon, then corrupts them.
func TestServingChecksRejectCorruptDecisions(t *testing.T) {
	in := tinyInputs(t)
	pl, err := startPlane(in, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.close()
	jobs := in.test.Jobs[:batchJobs]
	want := predictAll(in.model, jobs)
	ctx := context.Background()
	ds, err := pl.place(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDecisions(ds, jobs, want, pl.version); err != nil {
		t.Fatalf("real decisions rejected: %v", err)
	}
	for name, corrupt := range map[string]func(d []byom.WireDecision){
		"flipped category":    func(d []byom.WireDecision) { d[5].Category = (d[5].Category + 1) % numCategories },
		"wrong model version": func(d []byom.WireDecision) { d[0].ModelVersion++ },
		"reordered job IDs":   func(d []byom.WireDecision) { d[1].JobID, d[2].JobID = d[2].JobID, d[1].JobID },
	} {
		bad := append([]byom.WireDecision(nil), ds...)
		corrupt(bad)
		if checkDecisions(bad, jobs, want, pl.version) == nil {
			t.Errorf("%s: check passed", name)
		}
	}

	o := byom.Outcome{WantedSSD: ds[0].Admit, SpilledAt: -1, EvictedAt: -1}
	if err := pl.observe(ctx, jobs[0], ds[0].Category, o); err != nil {
		t.Fatal(err)
	}
	pl.settle(1)
	submitted, observed, _, _ := sumStats(pl.nodeStats())
	sent := int64(len(jobs))
	if err := checkConservation(submitted, sent, observed, 1); err != nil {
		t.Fatalf("real counters rejected: %v", err)
	}
	if checkConservation(submitted, sent, observed, 2) == nil {
		t.Error("conservation passed a dropped outcome")
	}
	if checkConservation(submitted, sent+1, observed, 1) == nil {
		t.Error("conservation passed a lost placement")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 {
		t.Errorf("quartiles = %+v, want q1 2.75 median 5.5 q3 8.25", s)
	}
}

func TestQuietQuarterKeepsLeastDisturbedSegmentsOfEachPoint(t *testing.T) {
	segs := []segment{
		{StealPct: 40, Decisions: 1}, {StealPct: 5, Decisions: 2}, {StealPct: 30, Decisions: 3},
		{StealPct: 1, OthersPct: 50, Decisions: 4}, {StealPct: 2, Decisions: 5},
	}
	got := quietQuarter(segs)
	if len(got) != 2 || got[0].Decisions != 2 || got[1].Decisions != 5 {
		t.Errorf("quietQuarter kept %+v, want the 5%% and 2%% segments in run order", got)
	}

	// Two sweeps of three quota points: one segment per point is kept,
	// whichever sweep was quieter there, and never two of one point.
	sweeps := []segment{
		{Point: 0, StealPct: 1, Decisions: 10}, {Point: 1, StealPct: 1, Decisions: 11}, {Point: 2, StealPct: 9, Decisions: 12},
		{Point: 0, StealPct: 3, Decisions: 20}, {Point: 1, StealPct: 2, Decisions: 21}, {Point: 2, StealPct: 4, Decisions: 22},
	}
	got = quietQuarter(sweeps)
	want := []int{10, 11, 22}
	if len(got) != len(want) {
		t.Fatalf("quietQuarter kept %d segments, want one per point", len(got))
	}
	for i, s := range got {
		if s.Decisions != want[i] || s.Point != i {
			t.Errorf("kept[%d] = point %d (decisions %d), want point %d (decisions %d)", i, s.Point, s.Decisions, i, want[i])
		}
	}
}

// TestCompareFlagsShiftsBothWaysAndSpreads builds two sets of run
// outputs and checks the comparator's verdicts.
func TestCompareFlagsShiftsBothWaysAndSpreads(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "decisions_s", "unit": "jobs/s", "better": "higher", "bound": 0.25}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	set := func(setup, rate []float64) map[string][]runOutput {
		var runs []runOutput
		for i := range setup {
			runs = append(runs, runOutput{
				rec: record{Record: "placebench", Workload: "w"},
				res: result{Attempted: 1, Metrics: map[string]metricValue{
					"setup_s": {Value: setup[i]}, "decisions_s": {Value: rate[i]},
				}},
			})
		}
		return map[string][]runOutput{"w": runs}
	}
	steady := []float64{1, 1, 1, 1}
	for _, c := range []struct {
		name  string
		a, b  map[string][]runOutput
		agree bool
	}{
		{"same", set(steady, steady), set(steady, steady), true},
		{"B 40% better", set(steady, steady), set(steady, []float64{1.4, 1.4, 1.4, 1.4}), false},
		{"B 40% worse", set(steady, steady), set(steady, []float64{0.6, 0.6, 0.6, 0.6}), false},
		{"setup_s spread above bound", set(steady, steady), set([]float64{0.5, 1, 1, 1.5}, steady), false},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, spec, c.a, c.b); got != c.agree {
			t.Errorf("%s: agree = %v, want %v\n%s", c.name, got, c.agree, out.String())
		}
	}
}
