package main

import (
	"fmt"
	"math"
	"time"
)

// layerInputs is everything the traced window produced.
type layerInputs struct {
	w     *workload
	in    *inputs
	f     *fleet
	st    *state
	spans []*span
	d     delta
	tl    *tally
	// ops counts the window's primary operations.
	ops                      int64
	opStats, queryStats      latencyStats
	untracedRate, tracedRate float64
	errorFrac                float64
}

// layerMetric is one per-layer value with the base it was divided by.
type layerMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"base"`
}

// layerSummary is the traced run's per-layer breakdown.
type layerSummary struct {
	Metrics map[string]layerMetric `json:"metrics"`
	// Attribution is the mean share of a primary request's client span
	// spent with each layer innermost; the shares sum to ClientMS.
	Attribution map[string]float64 `json:"attribution_ms_per_request"`
	ClientMS    float64            `json:"client_ms_per_request"`
	// ResidualMaxMS is the largest |sum of shares - client span| over
	// all traced requests.
	ResidualMaxMS float64 `json:"attribution_residual_max_ms"`
	Traces        int     `json:"traced_requests"`
	Spans         int     `json:"spans"`
}

// stageLayer maps the engine's trace stages to the core metrics.
var stageLayer = map[string]string{
	"pin": "core.pin_ms", "filter": "core.filter_ms", "scan": "core.filter_ms",
	"prune": "core.filter_ms", "refine": "core.refine_ms", "merge": "core.merge_ms",
}

// layerReport derives every per-layer metric. Span-based values are
// means over the traced window's requests; counter-based values are
// before/after deltas over the same window.
func layerReport(li layerInputs) *layerSummary {
	out := &layerSummary{Metrics: map[string]layerMetric{}, Attribution: map[string]float64{}, Spans: len(li.spans)}
	add := func(name, unit string, v float64, base string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[name] = layerMetric{v, unit, base}
	}

	var (
		queryTraces, updateTraces, nnTraces, nnReissued int
		routerSelfQ, routerSelfU                        float64
		rpcN                                            int
		rpcDur, rpcSelf, rpcBytes                       float64
		evalN                                           int
		serveSelf, engineMS, respBytes                  float64
		shardMatches, routerMatches                     int
		stages                                          = map[string]float64{}
		nnCandN, updShardN                              int
		nnCandMS, updShardMS                            float64
		primaryTraces                                   int
	)
	for _, t := range buildTrees(li.spans) {
		root := t.root
		isQuery := root.op == "/v1/evaluate"
		primary := isQuery != li.w.updates
		share := t.attribute()
		perLayer := map[string]float64{}
		var sum time.Duration
		for s, d := range share {
			sum += d
			perLayer[s.layer] += ms(d)
		}
		complete, traceNN, traceShardMatches := true, false, 0
		for _, r := range t.children[root.id] {
			self := ms(t.selfTime(r))
			if isQuery {
				routerSelfQ += self
			} else {
				routerSelfU += self
			}
			nnRPCs := 0
			for _, rp := range t.children[r.id] {
				if isQuery {
					rpcN++
					rpcDur += ms(rp.dur())
					rpcSelf += ms(t.selfTime(rp))
					rpcBytes += float64(rp.bytes)
				}
				if rp.op == "/v1/nn/candidates" {
					nnRPCs++
				}
				if len(t.children[rp.id]) == 0 {
					complete = false
				}
				for _, sh := range t.children[rp.id] {
					switch sh.op {
					case "/v1/evaluate":
						ev := sh.eval
						if ev == nil || ev.err != nil {
							complete = false
							continue
						}
						evalN++
						engineMS += ev.durationMS
						serveSelf += ms(sh.dur()) - ev.durationMS
						respBytes += float64(ev.bytes)
						traceShardMatches += ev.matches
						for stage, d := range ev.stages {
							stages[stageLayer[stage]] += d
						}
						// The engine runs inside the shard span: move
						// its part of the shard's share to core.
						if d := ms(sh.dur()); d > 0 {
							c := ms(share[sh]) * math.Min(1, ev.durationMS/d)
							perLayer["shard"] -= c
							perLayer["core"] += c
						}
					case "/v1/nn/candidates":
						nnCandN++
						nnCandMS += ms(sh.dur())
					case "/v1/updates":
						updShardN++
						updShardMS += ms(sh.dur())
					}
				}
			}
			if nnRPCs > 0 {
				traceNN = true
				nnTraces++
				if nnRPCs > numShards {
					nnReissued++
				}
				// NN refinement is engine code run by the router.
				c := math.Min(root.engine, ms(share[r]))
				perLayer["router"] -= c
				perLayer["core"] += c
			}
		}
		if isQuery {
			queryTraces++
			if complete && !traceNN {
				routerMatches += root.matches
				shardMatches += traceShardMatches
			}
		} else {
			updateTraces++
		}
		out.ResidualMaxMS = math.Max(out.ResidualMaxMS, math.Abs(ms(sum)-ms(root.dur())))
		if primary {
			primaryTraces++
			out.ClientMS += ms(root.dur())
			for l, v := range perLayer {
				out.Attribution[l] += v
			}
		}
	}
	out.Traces = queryTraces + updateTraces
	if primaryTraces > 0 {
		out.ClientMS /= float64(primaryTraces)
		for l := range out.Attribution {
			out.Attribution[l] /= float64(primaryTraces)
		}
	}
	// The shard layer's own share is serve code once core is split out.
	if v, ok := out.Attribution["shard"]; ok {
		out.Attribution["serve"] = v
		delete(out.Attribution, "shard")
	}

	q, nnq := float64(li.tl.queries.Load()), float64(li.tl.nnQueries.Load())
	batches, updates := float64(li.tl.batches.Load()), float64(li.tl.updates.Load())
	qt, ut := float64(queryTraces), float64(updateTraces)
	d := li.d
	per := func(n float64, what string) string { return fmt.Sprintf("%.0f %s", n, what) }

	add("loadgen.late_p99_ms", "ms", li.opStats.lateP99, per(float64(li.opStats.n), "open-loop operations"))
	add("loadgen.trace_overhead_pct", "%", (ratio(li.untracedRate, li.tracedRate)-1)*100,
		fmt.Sprintf("median closed-loop rate untraced %.1f/s vs traced %.1f/s", li.untracedRate, li.tracedRate))
	add("loadgen.error_frac", "ratio", li.errorFrac, "attempted operations")
	add("loadgen.query_p50_ms", "ms", li.queryStats.p50, per(float64(li.queryStats.n), "open-loop queries"))
	add("loadgen.query_tail_ms", "ms", li.queryStats.tail,
		fmt.Sprintf("p%v of %d open-loop queries, %d beyond", li.queryStats.tailPct, li.queryStats.n, li.queryStats.beyond))

	add("shard.router_self_ms", "ms", ratio(routerSelfQ, qt), per(qt, "traced queries"))
	add("shard.rpcs_per_query", "count", ratio(float64(rpcN), qt), per(qt, "traced queries"))
	add("shard.rpc_ms", "ms", ratio(rpcDur, float64(rpcN)), per(float64(rpcN), "query rpcs"))
	add("shard.rpc_transport_ms", "ms", ratio(rpcSelf, float64(rpcN)), per(float64(rpcN), "query rpcs"))
	add("shard.wire_bytes_per_query", "bytes", ratio(rpcBytes, qt), per(qt, "traced queries"))
	add("shard.nn_reissue_frac", "ratio", ratio(float64(nnReissued), float64(nnTraces)), per(float64(nnTraces), "traced nn queries"))
	add("shard.dup_match_frac", "ratio", ratio(float64(shardMatches-routerMatches), float64(shardMatches)),
		per(float64(shardMatches), "shard-level range matches"))
	add("shard.ingest_self_ms", "ms", ratio(routerSelfU, ut), per(ut, "traced update batches"))
	add("shard.replicas_per_update", "count", ratio(d.router["ildq_router_shard_updates_total"], updates), per(updates, "updates sent"))
	moves, straddling := li.straddle()
	add("shard.straddle_frac", "ratio", ratio(float64(straddling), float64(moves)), per(float64(moves), "uncertain objects written"))
	add("shard.retries", "count", d.router["ildq_router_shard_retries_total"], "window")
	add("shard.partial_responses", "count", d.router["ildq_router_partial_total"], "window")

	add("serve.self_ms", "ms", ratio(serveSelf, float64(evalN)), per(float64(evalN), "shard evaluations"))
	add("serve.resp_bytes_per_match", "bytes", ratio(respBytes, float64(shardMatches)), per(float64(shardMatches), "shard-level matches"))
	add("serve.nn_candidates_ms", "ms", ratio(nnCandMS, float64(nnCandN)), per(float64(nnCandN), "shard nn candidate calls"))
	monBatchMS := ratio(d.shards["ildq_monitor_batch_seconds_sum"], d.shards["ildq_monitor_batch_seconds_count"]) * 1000
	add("serve.update_self_ms", "ms", ratio(updShardMS, float64(updShardN))-monBatchMS, per(float64(updShardN), "shard update calls"))

	add("core.eval_ms", "ms", ratio(engineMS, float64(evalN))+ratio(li.routerNNEngine(), float64(nnTraces)),
		per(float64(evalN), "shard evaluations")+"; nn: router refinement per query")
	for _, name := range []string{"core.pin_ms", "core.filter_ms", "core.refine_ms", "core.merge_ms"} {
		add(name, "ms", ratio(stages[name], float64(evalN)), per(float64(evalN), "shard evaluations"))
	}
	add("core.candidates_per_match", "ratio", ratio(float64(li.tl.candidates.Load()), float64(li.tl.matches.Load())),
		per(float64(li.tl.matches.Load()), "router matches"))
	add("core.refined_per_query", "count", ratio(float64(li.tl.refined.Load()), q), per(q, "queries"))
	add("core.cow_publishes_per_batch", "count", ratio(d.shards["ildq_cow_publishes_total"], batches), per(batches, "router batches"))

	add("index.node_accesses_per_query", "count", ratio(float64(li.tl.nodeAccesses.Load()), q), per(q, "queries"))

	add("storage.hit_rate", "ratio", d.pool.HitRate(), fmt.Sprintf("%d logical page reads (0 without a buffer pool)", d.pool.LogicalReads))
	add("storage.physical_reads_per_query", "count", ratio(float64(d.pool.PhysicalReads), q), per(q, "queries"))
	add("storage.evictions_per_query", "count", ratio(float64(d.pool.Evictions), q), per(q, "queries"))

	add("nn.samples_per_query", "count", ratio(float64(li.tl.samples.Load()), nnq), per(nnq, "nn queries"))
	add("nn.candidates_per_query", "count", ratio(float64(li.tl.nnCandidates.Load()), nnq), per(nnq, "nn queries"))

	add("monitor.batch_ms", "ms", monBatchMS, per(d.shards["ildq_monitor_batch_seconds_count"], "shard batches"))
	add("monitor.reevals_per_batch", "count", ratio(float64(d.mon.Reevaluated), float64(d.mon.Batches)), per(float64(d.mon.Batches), "shard batches"))
	add("monitor.skip_frac", "ratio", ratio(float64(d.mon.Skipped), float64(d.mon.Skipped+d.mon.Reevaluated)),
		per(float64(d.mon.Skipped+d.mon.Reevaluated), "query-batch pairs"))
	add("monitor.coalesced", "count", float64(d.mon.Coalesced), "window")

	add("wal.bytes_per_update", "bytes", ratio(d.walBytes, updates), per(updates, "updates sent"))
	add("wal.fsyncs_per_s", "1/s", ratio(d.fsyncs, d.secs), fmt.Sprintf("%.2f s window", d.secs))
	ck, ckN := li.checkpointMS()
	add("wal.checkpoint_ms", "ms", ck, per(float64(ckN), "shard checkpoints"))

	ops := float64(li.ops)
	add("runtime.allocs_per_op", "count", ratio(d.mallocs, ops), per(ops, "primary operations"))
	add("runtime.alloc_bytes_per_op", "bytes", ratio(d.alloced, ops), per(ops, "primary operations"))
	add("runtime.gc_cpu_frac", "ratio", ratio(d.gcCPU, d.allCPU), fmt.Sprintf("%.2f process CPU-seconds", d.allCPU))
	return out
}

// routerNNEngine sums the router-side NN refinement time of the traced
// NN queries (their answers' cost.duration_ms).
func (li layerInputs) routerNNEngine() float64 {
	var total float64
	for _, s := range li.spans {
		if s.layer == "client" {
			total += s.engine
		}
	}
	return total
}

// straddle counts uncertain objects written — the update stream's
// object moves, or the bulk-loaded objects — and how many of them
// overlap more than one shard's tiles.
func (li layerInputs) straddle() (objects, straddling int) {
	if li.in.walk != nil {
		return li.in.walk.straddleCounts()
	}
	for _, o := range li.in.objects {
		if len(li.f.tiles.ShardsOverlapping(rectOf(o.Region))) > 1 {
			straddling++
		}
	}
	return len(li.in.objects), straddling
}

func (li layerInputs) checkpointMS() (float64, int) {
	var total float64
	for _, d := range li.st.ckptTimes {
		total += ms(d)
	}
	return ratio(total, float64(len(li.st.ckptTimes))), len(li.st.ckptTimes)
}
