// Command placebench is the end-to-end placement benchmark. One run
// executes one workload in one process and prints, as its last line, a
// JSON object with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run), the operations attempted and failed,
// and whether every correctness check passed:
//
//	placebench --workload offline-sweep --seed 1 --seconds 20 --trace 0
//	placebench compare <set-a-dir> <set-b-dir>
//
// The line before it is the run record: every timed segment with the
// host's steal share while it ran, and any failed check. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/byom"
)

// procStart stands in for the process's start: package initialisation
// runs before anything the set-up time is meant to cover.
var procStart = takeProbe()

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"decisions_s", "jobs/s"},
	{"cpu_us_per_decision", "us"},
	{"allocs_per_decision", "count"},
	{"batch_p50_ms", "ms"},
	{"tco_savings_pct", "%"},
	{"heap_peak_mib", "MiB"},
}

var perLayer = []metricDef{
	{"trace.generate_s", "s"},
	{"features.dataset_s", "s"},
	{"features.encode_us_per_job", "us"},
	{"features.encode_allocs_per_job", "count"},
	{"features.bin_us_per_job", "us"},
	{"gbdt.forest_us_per_job", "us"},
	{"gbdt.tree_us_per_job", "us"},
	{"core.predict_us_per_job", "us"},
	{"policy.place_s", "s"},
	{"sim.self_s", "s"},
	{"rebalance.solve_s", "s"},
	{"rebalance.solve_ms_per_solve", "ms"},
	{"serve.submit_p50_ms", "ms"},
	{"serve.mean_batch_size", "jobs"},
	{"serve.timeout_flushes", "count"},
	{"rpc.queue_wait_p99_ms", "ms"},
	{"rpc.place_self_p50_ms", "ms"},
	{"rpc.encode_p50_ms", "ms"},
	{"rpc.client_self_p50_ms", "ms"},
	{"rpc.outcome_p50_ms", "ms"},
	{"rpc.sheds", "count"},
	{"router.dispatch_p50_ms", "ms"},
	{"router.self_p50_ms", "ms"},
	{"router.dispatches_per_batch", "count"},
	{"router.max_node_share", "ratio"},
	{"router.feedback_misrouted_jobs", "count"},
	{"runtime.gc_cycles_per_kdecision", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"obs.overhead_pct", "%"},
}

var workloads = []string{"offline-sweep", "json-feedback", "routed-binary"}

// scale sizes a run's inputs and its segments of fixed work.
type scale struct {
	days  float64 // trace length; 0 keeps the generator default (14 days)
	users int     // trace users; 0 keeps the generator default (12)
	// roundS is how long one round (one segment per timed phase) takes
	// on the development host: the number of rounds a run makes is
	// --seconds over roundS, fixed by --seconds alone, so a faster or
	// slower program does the same work and the estimator pools the
	// same number of segments.
	roundS float64
	// minRounds is the fewest rounds a run makes however short
	// --seconds is.
	minRounds int
	// latencyReqs is the requests per latency segment, one outstanding.
	latencyReqs int
	// throughputReqs is the requests per worker per throughput segment.
	throughputReqs int
}

// roundCount is the number of rounds a run of the given length makes.
func (sc scale) roundCount(seconds float64) int {
	return max(sc.minRounds, int(math.Round(seconds/sc.roundS)))
}

// fullScale is the benchmark's input: the default generator cluster
// (14 days, 12 users). An offline round is one whole quota sweep (ten
// segments of ~1,100 batch samples each), so a 20-second run makes two
// sweeps. A serving round is one latency and one throughput segment,
// short enough that a 20-second run makes 13 (json-feedback) or 40
// (routed-binary) of them for the quiet quarter to choose from.
func fullScale(workload string) scale {
	switch workload {
	case "offline-sweep":
		return scale{roundS: 9, minRounds: 2}
	case "routed-binary":
		return scale{roundS: 0.5, minRounds: 2, latencyReqs: 150, throughputReqs: 50}
	}
	return scale{roundS: 1.5, minRounds: 2, latencyReqs: 150, throughputReqs: 30}
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    scale
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the line before the result: what the comparator and a
// reader need to judge a run beyond its metrics.
type record struct {
	Record   string             `json:"record"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Traced   bool               `json:"traced"`
	NumCPU   int                `json:"num_cpu"`
	Jobs     map[string]int     `json:"jobs"`
	StealPct map[string]float64 `json:"steal_pct"`
	Extra    map[string]float64 `json:"extra"`
	Checks   []string           `json:"failed_checks"`
	Segments []segment          `json:"segments"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "placebench:", err)
		os.Exit(2)
	}
	res, rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "placebench:", err)
		os.Exit(1)
	}
	if err := printRun(os.Stdout, res, rec); err != nil {
		fmt.Fprintln(os.Stderr, "placebench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		for _, c := range rec.Checks {
			fmt.Fprintln(os.Stderr, "placebench: check failed:", c)
		}
		os.Exit(1)
	}
}

func parseFlags(args []string) (runConfig, error) {
	fs := flag.NewFlagSet("placebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: offline-sweep, json-feedback or routed-binary")
	seed := fs.Int64("seed", 1, "workload seed (trace generation)")
	seconds := fs.Float64("seconds", 10, "measurement time after set-up")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return runConfig{}, err
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		return runConfig{}, fmt.Errorf("unknown --workload %q (want one of %v)", *workload, workloads)
	case *traced != 0 && *traced != 1:
		return runConfig{}, fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	case *seconds < 0:
		return runConfig{}, fmt.Errorf("--seconds must be >= 0, got %g", *seconds)
	}
	return runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1, scale: fullScale(*workload)}, nil
}

func printRun(w io.Writer, res result, rec record) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(res)
}

// inputs is a workload's generated trace, its split and its model.
type inputs struct {
	cm          *byom.CostModel
	train, test *byom.Trace
	model       *byom.CategoryModel
	peak        float64 // held-out PeakSSDUsage
	generateS   float64
	trainSeg    segment // TrainCategoryModel
}

// setup is the cold set-up, from the process's start to now.
func setup() segment {
	seg := segment{Phase: "setup"}
	seg.since(procStart, takeProbe())
	return seg
}

// The model is trained as cmd/placementd trains it by default.
const (
	// clusterSeed fixes the workload's cluster. The benchmark's seed
	// draws the model's training sample and the request stream instead:
	// across generator seeds the held-out half ranges from 7.7k to 22.7k
	// jobs and the 1%-quota savings from 0.53% to 2.28%, so a cluster
	// drawn per seed would measure the generator rather than the program.
	clusterSeed = 1

	numCategories = 15
	numRounds     = 12
)

func prepare(sc scale, seed int64) (*inputs, error) {
	gcfg := byom.DefaultGeneratorConfig("C0", clusterSeed)
	if sc.days > 0 {
		gcfg.DurationSec = sc.days * 24 * 3600
	}
	if sc.users > 0 {
		gcfg.NumUsers = sc.users
	}
	t0 := time.Now()
	full := byom.GenerateCluster(gcfg)
	in := &inputs{cm: byom.DefaultCostModel(), generateS: time.Since(t0).Seconds()}
	in.train, in.test = full.SplitAt(full.Duration() / 2)
	if len(in.train.Jobs) == 0 || len(in.test.Jobs) < batchJobs {
		return nil, fmt.Errorf("trace split left %d train and %d held-out jobs", len(in.train.Jobs), len(in.test.Jobs))
	}
	opts := byom.DefaultTrainOptions()
	opts.NumCategories = numCategories
	opts.GBDT.NumRounds = numRounds
	opts.GBDT.Seed = seed
	trainSeg, err := measureSegment("train", false, func(*segment) error {
		var err error
		in.model, err = byom.TrainCategoryModel(in.train.Jobs, in.cm, opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	in.trainSeg = trainSeg
	in.peak = in.test.PeakSSDUsage()
	return in, nil
}

// batchJobs is the request size of every serving phase and the decision
// count one offline batch sample spans: cmd/placementd's batch size.
const batchJobs = 64

// workloadRun is what a workload hands back for the metrics.
type workloadRun struct {
	setup     segment
	tcoPct    float64
	heapMiB   float64 // largest live heap after set-up and after each round
	segs      []segment
	ratePhase string // segments giving decisions_s, CPU, allocs and GC
	latPhase  string // segments giving batch latency
	layer     map[string]float64
	extra     map[string]float64
	attempted int64
	failed    int64
}

func run(cfg runConfig) (result, record, error) {
	in, err := prepare(cfg.scale, cfg.seed)
	if err != nil {
		return result{}, record{}, err
	}
	ck := &checker{}
	var wr *workloadRun
	switch cfg.workload {
	case "offline-sweep":
		wr, err = runOffline(cfg, in, ck)
	default:
		wr, err = runServing(cfg, in, ck)
	}
	if err != nil {
		return result{}, record{}, err
	}

	rec := record{
		Record: "placebench", Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Traced: cfg.traced, NumCPU: runtime.NumCPU(),
		Jobs:     map[string]int{"train": len(in.train.Jobs), "held_out": len(in.test.Jobs)},
		StealPct: map[string]float64{},
		Extra:    wr.extra,
		Checks:   ck.failures,
		Segments: append([]segment{wr.setup, in.trainSeg}, wr.segs...),
	}
	all := pool(wr.segs)
	rec.StealPct["timed"] = all.StealPct
	rec.StealPct["others_timed"] = all.OthersPct
	rate := pool(quietQuarter(filterSegs(wr.segs, wr.ratePhase, false)))
	lat := pool(quietQuarter(filterSegs(wr.segs, wr.latPhase, false)))
	rec.StealPct["quiet_"+wr.ratePhase] = rate.StealPct
	if wr.latPhase != wr.ratePhase {
		rec.StealPct["quiet_"+wr.latPhase] = lat.StealPct
	}

	values := map[string]float64{}
	if !cfg.traced {
		// Set-up and training are timed in CPU time, which the kernel
		// keeps steal out of; their wall times stay in the run record.
		values["setup_s"] = wr.setup.CPUS
		values["train_s"] = in.trainSeg.CPUS
		busy := rate.AvailS
		if wr.ratePhase == "sweep" {
			busy = rate.UnstolenS
		}
		values["decisions_s"] = perSecond(float64(rate.Decisions), busy)
		values["cpu_us_per_decision"] = perDecision(rate.CPUS*1e6, rate)
		values["allocs_per_decision"] = perDecision(float64(rate.Mallocs), rate)
		values["batch_p50_ms"] = quantile(lat.BatchMs, 0.50)
		// The tail is reported in the run record, not as a metric: on a
		// host whose hypervisor steals 10-50% of the CPU, the 99th
		// percentile is set by steal bursts (README.md).
		rec.Extra["batch_p99_ms"] = quantile(lat.BatchMs, 0.99)
		values["tco_savings_pct"] = wr.tcoPct
		values["heap_peak_mib"] = wr.heapMiB
	} else {
		for k, v := range wr.layer {
			values[k] = v
		}
		values["trace.generate_s"] = in.generateS
		for k, v := range isolationPasses(in) {
			values[k] = v
		}
		values["runtime.gc_cycles_per_kdecision"] = perDecision(1000*float64(rate.GCs), rate)
		values["runtime.gc_pause_ms"] = 0
		if rate.GCs > 0 {
			values["runtime.gc_pause_ms"] = float64(rate.PauseNs) / float64(rate.GCs) / 1e6
		}
		traced := pool(quietQuarter(filterSegs(wr.segs, wr.latPhase, true)))
		if p50 := quantile(lat.BatchMs, 0.5); p50 > 0 && len(traced.BatchMs) > 0 {
			values["obs.overhead_pct"] = 100 * (quantile(traced.BatchMs, 0.5)/p50 - 1)
		}
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := result{Correct: ck.ok(), Attempted: wr.attempted, Failed: wr.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		// A metric whose span or counter the program no longer exports
		// is left out rather than invented.
		if v, ok := values[d.name]; ok {
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	if res.Attempted < 1 {
		return result{}, record{}, fmt.Errorf("run attempted no operations")
	}
	return res, rec, nil
}

func perSecond(n, s float64) float64 {
	if s <= 0 {
		return 0
	}
	return n / s
}

func perDecision(v float64, p segment) float64 {
	if p.Decisions == 0 {
		return 0
	}
	return v / float64(p.Decisions)
}

// rounds runs n rounds of fixed work. After each round, outside its
// segments, it collects garbage and keeps the largest live heap in
// heapMiB. A traced run alternates untraced and traced rounds.
func rounds(n int, heapMiB *float64, round func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := round(i); err != nil {
			return err
		}
		*heapMiB = max(*heapMiB, liveHeapMiB())
	}
	return nil
}
