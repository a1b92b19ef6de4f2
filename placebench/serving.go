package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/byom"
	"repro/internal/sim"
)

// Serving-workload constants.
const (
	// replayQuotaFrac is the served replay's SSD quota as a share of the
	// held-out peak SSD usage: the paper's 1% headline quota.
	replayQuotaFrac = 0.01
	// tracedRing holds every trace of one traced segment or of the
	// served replay (~11k outcome posts plus its place requests).
	tracedRing = 1 << 15
)

// plane is the system under test: one daemon behind a JSON client, or
// two daemons behind a router with binary-codec clients.
type plane struct {
	daemons []*byom.Daemon
	urls    []string
	client  *byom.Client
	router  *byom.Router
	repl    *byom.ModelReplicator
	version int
}

// daemonConfig is cmd/placementd's default configuration.
func daemonConfig(traced bool) byom.DaemonConfig {
	cfg := byom.DefaultDaemonConfig(numCategories)
	cfg.Serve.Shards = 8
	cfg.Serve.BatchSize = 64
	cfg.Serve.FlushInterval = 2 * time.Millisecond
	cfg.MaxInFlightPlace = 64
	cfg.MaxInFlightOutcome = 256
	cfg.QueueDeadline = 5 * time.Millisecond
	cfg.MaxBatch = 4096
	cfg.TraceSampleEvery = 100
	cfg.TraceRing = 256
	if traced {
		cfg.TraceRing = tracedRing
	}
	return cfg
}

func startPlane(in *inputs, routed, traced bool) (pl *plane, err error) {
	src := byom.NewModelRegistry()
	v, err := src.Publish("default", in.model, 0)
	if err != nil {
		return nil, err
	}
	pl = &plane{version: v.Number}
	defer func() {
		if err != nil {
			pl.close()
		}
	}()
	nodes := 1
	if routed {
		nodes = 2
		pl.repl = byom.NewModelReplicator(src, "default")
	}
	for i := 0; i < nodes; i++ {
		reg := src
		if routed {
			reg = byom.NewModelRegistry()
			if _, err := pl.repl.Attach(reg, "default"); err != nil {
				return pl, fmt.Errorf("replicating to node %d: %w", i, err)
			}
		}
		d, err := byom.NewDaemon(reg, "default", in.cm, daemonConfig(traced))
		if err != nil {
			return pl, err
		}
		if err := d.Start("127.0.0.1:0"); err != nil {
			return pl, err
		}
		pl.daemons = append(pl.daemons, d)
		pl.urls = append(pl.urls, d.BaseURL())
	}
	if routed {
		pl.router, err = byom.NewRouter(byom.DefaultRouterConfig(pl.urls))
		return pl, err
	}
	ccfg := byom.DefaultClientConfig(pl.urls[0])
	ccfg.Codec = byom.CodecJSON
	pl.client, err = byom.NewClient(ccfg)
	return pl, err
}

func (pl *plane) place(ctx context.Context, jobs []*byom.Job) ([]byom.WireDecision, error) {
	if pl.router != nil {
		return pl.router.Place(ctx, jobs)
	}
	return pl.client.Place(ctx, jobs)
}

func (pl *plane) observe(ctx context.Context, j *byom.Job, category int, o byom.Outcome) error {
	if pl.router != nil {
		return pl.router.Observe(ctx, j, category, o)
	}
	return pl.client.Observe(ctx, j, category, o)
}

func (pl *plane) close() {
	if pl.router != nil {
		pl.router.Close()
	}
	if pl.client != nil {
		pl.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, d := range pl.daemons {
		_ = d.Shutdown(ctx) // the run's figures are already taken
	}
	if pl.repl != nil {
		pl.repl.Close()
	}
}

// nodeStats is every daemon's serving counters, in plane order.
func (pl *plane) nodeStats() []byom.ServeStats {
	out := make([]byom.ServeStats, len(pl.daemons))
	for i, d := range pl.daemons {
		out[i] = d.ServeStats()
	}
	return out
}

func sumStats(ss []byom.ServeStats) (submitted, observed, batches, timeouts int64) {
	for _, s := range ss {
		submitted += s.Submitted
		observed += s.Observations
		batches += s.Batches
		timeouts += s.TimeoutFlushes
	}
	return
}

// settle waits until the daemons have applied every posted outcome:
// observations reach the shard workers asynchronously.
func (pl *plane) settle(posted int64) {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, obs, _, _ := sumStats(pl.nodeStats()); obs >= posted {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// chunk is one 64-job request of held-out jobs with the categories the
// benchmark's own pointer-tree walk predicts for them.
type chunk struct {
	jobs []*byom.Job
	want []int
}

func predictAll(m *byom.CategoryModel, jobs []*byom.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = m.Predict(j)
	}
	return out
}

// servingRun drives one plane through the served replay and the timed
// rounds, counting what it sends.
type servingRun struct {
	pl       *plane
	ck       *checker
	tr       *tracing
	feedback bool
	chunks   []chunk
	cursor   atomic.Int64

	sent      atomic.Int64 // jobs in place requests that returned
	posted    atomic.Int64 // outcome posts that returned
	attempted atomic.Int64
	failed    atomic.Int64
}

func (s *servingRun) nextChunk() chunk {
	return s.chunks[int((s.cursor.Add(1)-1)%int64(len(s.chunks)))]
}

// place sends one request and checks its decisions.
func (s *servingRun) place(ctx context.Context, c chunk, phase string, traced bool) ([]byom.WireDecision, time.Duration, bool) {
	s.attempted.Add(int64(len(c.jobs)))
	ctx, b := s.tr.begin(ctx, traced)
	t := time.Now()
	ds, err := s.pl.place(ctx, c.jobs)
	d := time.Since(t)
	s.tr.finish(b, "bench.place", phase, t, d)
	if err != nil {
		s.failed.Add(int64(len(c.jobs)))
		return nil, d, false
	}
	s.sent.Add(int64(len(c.jobs)))
	s.ck.add(checkDecisions(ds, c.jobs, c.want, s.pl.version))
	return ds, d, true
}

func (s *servingRun) observe(ctx context.Context, j *byom.Job, category int, o byom.Outcome, phase string, traced bool) time.Duration {
	s.attempted.Add(1)
	ctx, b := s.tr.begin(ctx, traced)
	t := time.Now()
	err := s.pl.observe(ctx, j, category, o)
	d := time.Since(t)
	s.tr.finish(b, "bench.outcome", phase, t, d)
	if err != nil {
		s.failed.Add(1)
		return d
	}
	s.posted.Add(1)
	return d
}

// postOutcomes posts the outcome of every job of a served request, as
// the storage layer does: sim and the served replay report one outcome
// per decided job. json-feedback's throughput phase does this after
// every request, so writes run beside reads on the same shard queues;
// the latency phase, with one request outstanding and nothing beside
// it, sends places only.
func (s *servingRun) postOutcomes(ctx context.Context, c chunk, ds []byom.WireDecision, phase string, traced bool) {
	for i, d := range ds {
		o := byom.Outcome{WantedSSD: d.Admit, SpilledAt: -1, EvictedAt: -1}
		if d.Admit {
			o.FracOnSSD = 1
		}
		s.observe(ctx, c.jobs[i], d.Category, o, phase, traced)
	}
}

// request is one timed request: the place call (the batch sample) and,
// with feedback, one outcome post per job it decided.
func (s *servingRun) request(ctx context.Context, phase string, traced, feedback bool, seg *segment, mu *sync.Mutex) {
	c := s.nextChunk()
	ds, d, ok := s.place(ctx, c, phase, traced)
	if !ok {
		return
	}
	mu.Lock()
	seg.Decisions += len(c.jobs)
	seg.BatchMs = append(seg.BatchMs, float64(d)/1e6)
	mu.Unlock()
	if feedback {
		s.postOutcomes(ctx, c, ds, phase, traced)
	}
}

func (s *servingRun) latencySegment(n int, traced bool) (segment, error) {
	var mu sync.Mutex
	return measureSegment("latency", traced, func(seg *segment) error {
		for r := 0; r < n; r++ {
			s.request(context.Background(), "latency", traced, false, seg, &mu)
		}
		return nil
	})
}

// throughputSegment keeps one request outstanding per CPU, each worker
// sending a fixed number of requests.
func (s *servingRun) throughputSegment(perWorker int, traced bool) (segment, error) {
	var mu sync.Mutex
	return measureSegment("throughput", traced, func(seg *segment) error {
		var wg sync.WaitGroup
		for w := 0; w < runtime.NumCPU(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < perWorker; r++ {
					s.request(context.Background(), "throughput", traced, s.feedback, seg, &mu)
				}
			}()
		}
		wg.Wait()
		return nil
	})
}

// replayPolicy is the served replay's storage layer: sim asks it for
// each held-out job's placement in arrival order; it fetches decisions
// one 64-job request at a time, and posts every job's outcome back
// before the next request.
type replayPolicy struct {
	s      *servingRun
	jobs   []*byom.Job
	want   []int
	traced bool

	pos     int
	ds      []byom.WireDecision
	pending []pendingOutcome
	placeNs time.Duration
	obsNs   time.Duration
}

type pendingOutcome struct {
	job      *byom.Job
	category int
	o        byom.Outcome
}

func (p *replayPolicy) Name() string { return "served-replay" }

func (p *replayPolicy) Place(j *byom.Job, _ sim.PlaceContext) bool {
	i := p.pos % batchJobs
	if i == 0 {
		p.flush()
		end := min(p.pos+batchJobs, len(p.jobs))
		t := time.Now()
		ds, _, ok := p.s.place(context.Background(), chunk{p.jobs[p.pos:end], p.want[p.pos:end]}, "replay", p.traced)
		p.placeNs += time.Since(t)
		p.ds = ds
		if !ok {
			p.ds = nil
		}
	}
	if p.jobs[p.pos] != j {
		p.s.ck.add(fmt.Errorf("served replay: sim asked for job %s at position %d, expected %s", j.ID, p.pos, p.jobs[p.pos].ID))
	}
	p.pos++
	if p.ds == nil {
		return false
	}
	return p.ds[i].Admit
}

func (p *replayPolicy) Observe(j *byom.Job, o byom.Outcome) {
	i := (p.pos - 1) % batchJobs
	if p.ds == nil {
		return
	}
	p.pending = append(p.pending, pendingOutcome{job: j, category: p.ds[i].Category, o: o})
}

func (p *replayPolicy) flush() {
	t := time.Now()
	for _, po := range p.pending {
		p.s.observe(context.Background(), po.job, po.category, po.o, "replay", p.traced)
	}
	p.pending = p.pending[:0]
	p.obsNs += time.Since(t)
}

func runServing(cfg runConfig, in *inputs, ck *checker) (*workloadRun, error) {
	routed := cfg.workload == "routed-binary"
	pl, err := startPlane(in, routed, cfg.traced)
	if err != nil {
		return nil, err
	}
	defer pl.close()
	s := &servingRun{pl: pl, ck: ck, tr: newTracing(cfg.traced), feedback: cfg.workload == "json-feedback"}

	// Warm-up: the connection(s), the client's bin schema and the
	// daemons' pools, with the last training batch sent in order.
	warm := in.train.Jobs[max(0, len(in.train.Jobs)-batchJobs):]
	if _, _, ok := s.place(context.Background(), chunk{warm, predictAll(in.model, warm)}, "warmup", false); !ok {
		return nil, fmt.Errorf("warm-up request failed")
	}
	wr := &workloadRun{setup: setup(), ratePhase: "throughput", latPhase: "latency", extra: map[string]float64{}}
	wr.heapMiB = liveHeapMiB()

	want := predictAll(in.model, in.test.Jobs)
	for i := 0; i+batchJobs <= len(in.test.Jobs); i += batchJobs {
		s.chunks = append(s.chunks, chunk{in.test.Jobs[i : i+batchJobs], want[i : i+batchJobs]})
	}
	// The seed draws the order in which the timed phases visit the
	// held-out batches.
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(s.chunks), func(a, b int) { s.chunks[a], s.chunks[b] = s.chunks[b], s.chunks[a] })

	// Phase 1: served replay at 1% of the held-out peak.
	led := newLedger(in.test.Jobs, in.cm)
	quota := replayQuotaFrac * in.peak
	before := pl.nodeStats()
	rp := &replayPolicy{s: s, jobs: in.test.Jobs, want: want, traced: cfg.traced}
	t := time.Now()
	res, err := byom.Simulate(in.test, rp, in.cm, byom.SimConfig{SSDQuota: quota})
	if err != nil {
		return nil, fmt.Errorf("served replay: %w", err)
	}
	rp.flush()
	replayWall := time.Since(t)
	ck.add(checkSimTotals(res, led, quota))
	wr.tcoPct = res.TCOSavingsPercent()
	pl.settle(s.posted.Load())
	after := pl.nodeStats()
	var misrouted float64
	for i := range after {
		decided := after[i].Submitted - before[i].Submitted
		observed := after[i].Observations - before[i].Observations
		misrouted += math.Abs(float64(decided - observed))
	}
	misrouted /= 2
	wr.extra["feedback_misrouted_jobs"] = misrouted
	wr.extra["replay_s"] = replayWall.Seconds()
	s.tr.collect(pl)

	// Phases 2 and 3, alternating in rounds: latency with one request
	// outstanding, then throughput with one per CPU.
	var timeouts, requests, tpBatches, tpSubmitted int64
	perNode := make([]int64, len(pl.daemons))
	var routerStart byom.RouterStats
	if routed {
		routerStart = pl.router.Stats()
	}
	err = rounds(cfg.scale.roundCount(cfg.seconds), &wr.heapMiB, func(i int) error {
		traced := cfg.traced && i%2 == 1
		a := pl.nodeStats()
		lat, err := s.latencySegment(cfg.scale.latencyReqs, traced)
		if err != nil {
			return err
		}
		b := pl.nodeStats()
		tp, err := s.throughputSegment(cfg.scale.throughputReqs, traced)
		if err != nil {
			return err
		}
		c := pl.nodeStats()
		wr.segs = append(wr.segs, lat, tp)
		_, _, _, ta := sumStats(a)
		subB, _, batB, _ := sumStats(b)
		subC, _, batC, tc := sumStats(c)
		timeouts += tc - ta
		requests += int64(cfg.scale.latencyReqs + runtime.NumCPU()*cfg.scale.throughputReqs)
		tpBatches += batC - batB
		tpSubmitted += subC - subB
		for n := range c {
			perNode[n] += c[n].Submitted - a[n].Submitted
		}
		if traced {
			s.tr.collect(pl)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	posted := s.posted.Load()
	pl.settle(posted)
	submitted, observed, _, _ := sumStats(pl.nodeStats())
	ck.add(checkConservation(submitted, s.sent.Load(), observed, posted))
	wr.attempted = s.attempted.Load()
	wr.failed = s.failed.Load()

	if cfg.traced {
		path := servingPath
		if routed {
			path = routedPath
		}
		wr.layer = notOnPath(path)
		for k, v := range s.tr.layerMetrics(pl, routed) {
			wr.layer[k] = v
		}
		wr.layer["policy.place_s"] = rp.placeNs.Seconds()
		wr.layer["sim.self_s"] = (replayWall - rp.placeNs - rp.obsNs).Seconds()
		if tpBatches > 0 {
			wr.layer["serve.mean_batch_size"] = float64(tpSubmitted) / float64(tpBatches)
		}
		wr.layer["serve.timeout_flushes"] = 1000 * float64(timeouts) / float64(requests)
		var sheds int64
		for _, d := range pl.daemons {
			sheds += d.Stats().Shed
		}
		wr.layer["rpc.sheds"] = float64(sheds)
		if routed {
			rs := pl.router.Stats()
			if n := rs.Batches - routerStart.Batches; n > 0 {
				wr.layer["router.dispatches_per_batch"] = float64(rs.Dispatches-routerStart.Dispatches) / float64(n)
			}
			var total, top int64
			for _, n := range perNode {
				total += n
				top = max(top, n)
			}
			if total > 0 {
				wr.layer["router.max_node_share"] = float64(top) / float64(total)
			}
			wr.layer["router.feedback_misrouted_jobs"] = misrouted
		}
	}
	return wr, nil
}
