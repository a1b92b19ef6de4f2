package main

import (
	"context"
	"runtime"
	"sort"
	"time"

	"repro/internal/features"
	"repro/internal/obs"
)

// tracing is the traced run's span ledger. The benchmark opens one
// trace per request in its own obs.Tracer and puts it in the request's
// context; the router records its dispatch spans into it and the
// clients carry its ID to the daemons, whose tracers capture their
// spans under the same ID. collect joins both sides by trace ID.
type tracing struct {
	bench  *obs.Tracer
	client map[uint64]obs.Trace
	daemon map[traceKey]obs.Trace
}

// traceKey is one daemon's trace of one request.
type traceKey struct {
	id   uint64
	node int
}

func newTracing(enabled bool) *tracing {
	if !enabled {
		return nil
	}
	return &tracing{
		bench:  obs.NewTracer("placebench", 0, tracedRing),
		client: map[uint64]obs.Trace{},
		daemon: map[traceKey]obs.Trace{},
	}
}

// begin opens a trace for one traced request and puts it in ctx; an
// untraced request gets none (nil).
func (t *tracing) begin(ctx context.Context, traced bool) (context.Context, *obs.TraceBuilder) {
	if t == nil || !traced {
		return ctx, nil
	}
	b := t.bench.Begin(obs.MintTraceID())
	return obs.WithTrace(ctx, b), b
}

// finish records the benchmark's own span around the call into the
// layer (detail names the phase) and publishes the trace.
func (t *tracing) finish(b *obs.TraceBuilder, stage, phase string, start time.Time, d time.Duration) {
	if b == nil {
		return
	}
	b.Span(stage, phase, start, d)
	b.Finish()
}

// collect copies every trace the benchmark and the daemons hold; rings
// are sized to hold a whole traced segment, so nothing is lost between
// two collections.
func (t *tracing) collect(pl *plane) {
	if t == nil {
		return
	}
	for _, tr := range t.bench.Snapshot() {
		t.client[tr.ID] = tr
	}
	for n, d := range pl.daemons {
		for _, tr := range d.Tracer().Snapshot() {
			if _, ours := t.client[tr.ID]; ours {
				t.daemon[traceKey{tr.ID, n}] = tr
			}
		}
	}
}

// spanNs is the duration of the first span named stage, if any.
func spanNs(tr obs.Trace, stage string) (int64, bool) {
	for _, s := range tr.Spans {
		if s.Stage == stage {
			return s.DurNs, true
		}
	}
	return 0, false
}

// layerMetrics joins client and daemon traces into per-request trees and
// computes each layer's self time: its span minus the child spans it
// encloses. Latency-phase requests give the p50s (one request
// outstanding); the throughput phase gives the queue-wait tail.
func (t *tracing) layerMetrics(pl *plane, routed bool) map[string]float64 {
	t.collect(pl)
	node := map[string]int{}
	for i, u := range pl.urls {
		node[u] = i
	}
	var submit, placeSelf, encode, clientSelf, outcome, queueTP, dispatch, routerSelf []float64
	for id, c := range t.client {
		for _, s := range c.Spans {
			if s.Stage == "bench.outcome" {
				for n := range pl.daemons {
					if d, ok := spanNs(t.daemon[traceKey{id, n}], "rpc.outcome"); ok {
						outcome = append(outcome, ms(d))
					}
				}
				continue
			}
			if s.Stage != "bench.place" {
				continue
			}
			switch s.Detail {
			case "throughput":
				for n := range pl.daemons {
					if d, ok := spanNs(t.daemon[traceKey{id, n}], "rpc.queue_wait"); ok {
						queueTP = append(queueTP, ms(d))
					}
				}
			case "latency":
				// hop is one client→daemon leg: the router's dispatch on
				// routed-binary, the benchmark's own call on json-feedback.
				type hop struct {
					n      int
					dur    int64
					placed string
				}
				var hops []hop
				var intervals [][2]int64
				if routed {
					for _, ds := range c.Spans {
						if ds.Stage == "router.dispatch" {
							hops = append(hops, hop{node[ds.Detail], ds.DurNs, "rpc.place.binary"})
							dispatch = append(dispatch, ms(ds.DurNs))
							intervals = append(intervals, [2]int64{ds.StartNs, ds.StartNs + ds.DurNs})
						}
					}
					routerSelf = append(routerSelf, ms(s.DurNs-covered(intervals, s.StartNs, s.StartNs+s.DurNs)))
				} else {
					hops = []hop{{0, s.DurNs, "rpc.place.json"}}
				}
				for _, h := range hops {
					d := t.daemon[traceKey{id, h.n}]
					place, ok := spanNs(d, h.placed)
					if !ok {
						continue
					}
					clientSelf = append(clientSelf, ms(h.dur-place))
					self := place
					for _, child := range []string{"rpc.queue_wait", "serve.submit", "rpc.encode"} {
						if v, ok := spanNs(d, child); ok {
							self -= v
							switch child {
							case "serve.submit":
								submit = append(submit, ms(v))
							case "rpc.encode":
								encode = append(encode, ms(v))
							}
						}
					}
					placeSelf = append(placeSelf, ms(self))
				}
			}
		}
	}
	out := map[string]float64{}
	put := func(name string, xs []float64, q float64) {
		if len(xs) > 0 {
			out[name] = quantile(xs, q)
		}
	}
	put("serve.submit_p50_ms", submit, 0.5)
	put("rpc.place_self_p50_ms", placeSelf, 0.5)
	put("rpc.client_self_p50_ms", clientSelf, 0.5)
	put("rpc.outcome_p50_ms", outcome, 0.5)
	put("rpc.queue_wait_p99_ms", queueTP, 0.99)
	if routed {
		put("rpc.encode_p50_ms", encode, 0.5)
		put("router.dispatch_p50_ms", dispatch, 0.5)
		put("router.self_p50_ms", routerSelf, 0.5)
	} else {
		out["rpc.encode_p50_ms"] = 0 // JSON responses have no frame encode
	}
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// covered is how much of [lo, hi) the union of intervals covers.
func covered(intervals [][2]int64, lo, hi int64) int64 {
	sort.Slice(intervals, func(a, b int) bool { return intervals[a][0] < intervals[b][0] })
	var total, end int64 = 0, lo
	for _, iv := range intervals {
		s, e := max(iv[0], end), min(iv[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// isolationReps is how many times each isolation pass runs; the median
// pass is reported.
const isolationReps = 3

// isolationPasses times each inference layer alone over the workload's
// own held-out jobs.
func isolationPasses(in *inputs) map[string]float64 {
	jobs := in.test.Jobs
	n := float64(len(jobs))
	enc := in.model.Encoder
	rows := make([][]float64, len(jobs))
	for i, j := range jobs {
		rows[i] = enc.Encode(j, nil)
	}
	out := map[string]float64{}

	out["features.dataset_s"] = medianPass(func() { enc.Dataset(in.train.Jobs) }).Seconds()

	var buf []float64
	var mallocs uint64
	out["features.encode_us_per_job"] = usPerJob(medianPass(func() {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for _, j := range jobs {
			buf = enc.Encode(j, buf)
		}
		runtime.ReadMemStats(&b)
		mallocs = b.Mallocs - a.Mallocs
	}), n)
	out["features.encode_allocs_per_job"] = float64(mallocs) / n

	if binner, err := features.BinnerForModel(in.model.Model); err == nil {
		var bins []uint16
		out["features.bin_us_per_job"] = usPerJob(medianPass(func() {
			for _, r := range rows {
				bins = binner.Bin(r, bins)
			}
		}), n)
	}
	if forest, err := in.model.Model.Compile(); err == nil {
		var classes []int
		var scratch []float64
		out["gbdt.forest_us_per_job"] = usPerJob(medianPass(func() {
			for i := 0; i < len(rows); i += batchJobs {
				classes, scratch = forest.PredictClassBatch(rows[i:min(i+batchJobs, len(rows))], classes, scratch)
			}
		}), n)
	}
	out["gbdt.tree_us_per_job"] = usPerJob(medianPass(func() {
		for _, r := range rows {
			in.model.Model.PredictClass(r)
		}
	}), n)
	out["core.predict_us_per_job"] = usPerJob(medianPass(func() {
		for _, j := range jobs {
			in.model.Predict(j)
		}
	}), n)
	return out
}

func medianPass(fn func()) time.Duration {
	ds := make([]float64, isolationReps)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(quantile(ds, 0.5))
}

func usPerJob(d time.Duration, n float64) float64 { return float64(d) / 1e3 / n }
