// perfbench harness: builds one named workload's world through the
// library's public set-up entry points, replays it repeatedly through the
// public replay entry points for a fixed measurement window, and prints
// one JSON report on stdout. perfbench/run.py builds this binary, runs it,
// checks the report and derives the benchmark metrics from it.
//
//   perfbench_harness workload=<name> seed=<n> seconds=<s> [key=value ...]
//     workload  paper_fig7b | fleet_ycsb_1m | chaos_writes
//     seed      workload seed: the trace seed of fleet_ycsb_1m and
//               chaos_writes, from which chaos_writes also derives its
//               arrival, fault-plan and protocol-jitter seeds;
//               paper_fig7b always replays the paper's trace (seed 1)
//     seconds   replay measurement window (whole rounds)
//     traced=0  1 = traced run: alternate untraced and traced rounds,
//               record spans and policy-layer counters
//     threads=4 worker threads for the parallel event engine
//     scale=full  small = reduced world for the benchmark's own tests
//     trace_out=  Chrome trace-event file written by a traced run
//
// At full scale the world is built at least 3 times and for at least 5 s
// (set-up is reported as the median build), and at least 3 replay rounds
// run; at small scale 2 builds and 2 rounds, with no time floor.
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   paper_fig7b    the paper's section 6.1 world (68 HTM objects, 250k
//                  queries + 250k updates, cache 30% of the server); one
//                  round replays the five Fig. 7b policies synchronously,
//                  then VCover once more through the event engine over
//                  zero-latency links.
//   fleet_ycsb_1m  zipfian YCSB-B over 10^6 objects, 2M events; 16 VCover
//                  caches split by load on a 1 Gbit/40 ms WAN, closed loop
//                  at 0.02 s/event.
//   chaos_writes   MB-scale astronomy world, 200k queries + 800k updates;
//                  4 Benefit caches, open-loop Poisson at 200/s over
//                  100 Mbit/40 ms with protocol, admission and notice
//                  batching armed, lossy links, one crash-stop per cache
//                  and one partitioned server<->cache path.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_system.h"
#include "json.h"
#include "net/fault_plan.h"
#include "net/link_model.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "timed_policy.h"
#include "tracer.h"
#include "util/config.h"
#include "workload/synthetic_trace.h"
#include "workload/trace_generator.h"
#include "workload/trace_split.h"

namespace {

using namespace delta;
using perfbench::Json;
using perfbench::PolicyTimes;
using perfbench::SpanScope;
using perfbench::TimedPolicy;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Independent sub-seed of the workload seed for one consumer (arrivals,
/// fault plan, protocol jitter).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return net::fault_mix64(seed ^ net::fault_mix64(stream));
}

/// FNV-1a over the exact bits of every simulated output of a round: two
/// rounds (or a traced and an untraced round) agree iff their digests do.
class Digest {
 public:
  void add(std::int64_t v) { mix(&v, sizeof v); }
  void add(double v) { mix(&v, sizeof v); }
  void add(Bytes b) { add(b.count()); }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(const void* p, std::size_t n) {
    unsigned char bytes[8];
    std::memcpy(bytes, p, n);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= bytes[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::size_t threads = 4;
  bool small = false;
  std::string trace_out;

  // Set-up repeats and the replay-round floor follow from the scale.
  [[nodiscard]] int setups() const { return small ? 2 : 3; }
  [[nodiscard]] double setup_seconds() const { return small ? 0.0 : 5.0; }
  [[nodiscard]] int min_rounds() const { return small ? 2 : 3; }
};

// ------------------------------------------------------------------ worlds

/// A built workload world: the trace plus what the policies are sized by.
struct World {
  sim::SetupParams params;
  workload::Trace trace;
  Bytes capacity;  // total cache capacity, split evenly across endpoints
};

/// Wall time of each set-up stage of one build.
struct SetupTimes {
  double density_s = 0.0;
  double partition_map_s = 0.0;
  double trace_gen_s = 0.0;
  double total_s = 0.0;
};

Bytes cache_capacity(const workload::Trace& trace, double fraction) {
  Bytes total;
  for (const Bytes b : trace.initial_object_bytes) total += b;
  return Bytes{static_cast<std::int64_t>(total.as_double() * fraction)};
}

/// The astronomy set-up path: density model -> HTM partition map -> trace.
World build_astronomy(const sim::SetupParams& params, Tracer* tracer,
                      SetupTimes& times) {
  const auto start = Clock::now();
  SpanScope setup_span{tracer, "bench.setup"};
  World world;
  world.params = params;
  std::shared_ptr<storage::DensityModel> density;
  {
    SpanScope span{tracer, "storage.density"};
    const auto t = Clock::now();
    density = std::make_shared<storage::DensityModel>(params.base_level,
                                                      params.sky_seed);
    density->scale_to_total_rows(params.total_rows);
    times.density_s = since(t);
  }
  std::shared_ptr<const htm::PartitionMap> map;
  {
    SpanScope span{tracer, "htm.partition_map"};
    const auto t = Clock::now();
    map = std::make_shared<htm::PartitionMap>(htm::PartitionMap::build(
        params.base_level, density->weights(), params.object_target));
    times.partition_map_s = since(t);
  }
  {
    SpanScope span{tracer, "workload.trace_gen"};
    const auto t = Clock::now();
    const workload::TraceGenerator generator{map, *density, params.trace};
    world.trace = generator.generate(params.trace_seed);
    times.trace_gen_s = since(t);
  }
  world.capacity = cache_capacity(world.trace, params.cache_fraction);
  times.total_s = since(start);
  return world;
}

sim::SetupParams paper_params(const Args& args) {
  // Section 6.1 defaults: 68 objects, 250k + 250k, cache 30%, and the
  // calibrated trace seed 1 every figure bench and golden table uses. The
  // workload seed does not pick another trace: other trace seeds are other
  // experiments, whose VCover traffic and replay work differ several-fold
  // (see perfbench/README.md), not noise around this one.
  sim::SetupParams p;
  p.trace_seed = 1;
  if (args.small) {
    p.trace.query_count = 20'000;
    p.trace.update_count = 20'000;
    p.trace.postwarmup_query_gb = 300.0 * 20'000 / 250'000;
  }
  return p;
}

sim::SetupParams chaos_params(const Args& args) {
  sim::SetupParams p;
  p.base_level = 4;
  p.total_rows = 400;
  p.object_target = 30;
  p.trace_seed = args.seed;
  p.trace.query_count = args.small ? 2'000 : 200'000;
  p.trace.update_count = args.small ? 8'000 : 800'000;
  // The chaos suite's MB-scale calibration (0.05 GB per 1200 queries).
  p.trace.postwarmup_query_gb =
      0.05 * static_cast<double>(p.trace.query_count) / 1200.0;
  p.trace.mean_postwarmup_update_mb = 0.02;
  p.trace.hotspot_max_object_gb = 0.01;
  return p;
}

World build_fleet(const Args& args, Tracer* tracer, SetupTimes& times) {
  const auto start = Clock::now();
  SpanScope setup_span{tracer, "bench.setup"};
  World world;
  world.params.trace_seed = args.seed;
  {
    SpanScope span{tracer, "workload.trace_gen"};
    const auto t = Clock::now();
    const workload::SyntheticTraceGenerator generator{workload::ycsb_params(
        workload::YcsbMix::kB, args.small ? 10'000 : 1'000'000,
        args.small ? 20'000 : 2'000'000)};
    world.trace = generator.generate(args.seed);
    times.trace_gen_s = since(t);
  }
  world.capacity = cache_capacity(world.trace, world.params.cache_fraction);
  times.total_s = since(start);
  return world;
}

World build_world(const Args& args, Tracer* tracer, SetupTimes& times) {
  if (args.workload == "paper_fig7b") {
    return build_astronomy(paper_params(args), tracer, times);
  }
  if (args.workload == "chaos_writes") {
    return build_astronomy(chaos_params(args), tracer, times);
  }
  return build_fleet(args, tracer, times);
}

std::string setup_digest(const World& world) {
  Digest d;
  d.add(static_cast<std::int64_t>(world.trace.order.size()));
  d.add(world.trace.total_query_cost());
  d.add(world.trace.total_update_cost());
  d.add(world.capacity);
  d.add(static_cast<std::int64_t>(world.trace.info.warmup_end_event));
  return d.hex();
}

// ------------------------------------------------------------------ rounds

/// One replay round: every replay the workload runs, with its simulated
/// outputs (for the checks) and, in a traced round, its layer metrics.
struct Round {
  double wall_s = 0.0;
  std::int64_t events = 0;  // merged events replayed (all replays)
  std::int64_t replays = 0;
  std::string digest;
  Json sim = Json::object();
  std::map<std::string, double> layers;
};

/// Sums the policy-layer probes of one round into its layer metrics.
void add_policy_layers(const std::vector<PolicyTimes>& slots,
                       double engine_busy_s, Round& round) {
  double query_s = 0.0;
  double update_s = 0.0;
  std::int64_t query_calls = 0;
  std::int64_t update_calls = 0;
  for (const PolicyTimes& s : slots) {
    query_s += s.query_s;
    update_s += s.update_s;
    query_calls += s.query_calls;
    update_calls += s.update_calls;
  }
  round.layers["core.policy.query_s"] = query_s;
  round.layers["core.policy.update_s"] = update_s;
  round.layers["core.policy.query_calls"] = static_cast<double>(query_calls);
  round.layers["core.policy.update_calls"] =
      static_cast<double>(update_calls);
  round.layers["sim.loop_self_s"] = engine_busy_s - query_s - update_s;
}

void add_flow_layers(std::int64_t bfs, std::int64_t covers,
                     std::int64_t trace_events, Round& round) {
  round.layers["flow.bfs_searches"] = static_cast<double>(bfs);
  round.layers["flow.covers_computed"] = static_cast<double>(covers);
  round.layers["flow.bfs_per_event"] =
      ratio(static_cast<double>(bfs), static_cast<double>(trace_events));
}

/// Layer metrics every event-engine replay reports: the parallel replay,
/// the transport and the protocol, derived from the result's counters and
/// per-shard walls (no instrumentation inside the engine).
void add_event_layers(const sim::EventRunResult& r, double call_wall_s,
                      std::size_t threads, std::int64_t trace_events,
                      Round& round) {
  const std::vector<sim::RunResult>& shards = r.replay.per_endpoint;
  double sum = 0.0;
  double slowest = 0.0;
  for (const sim::RunResult& s : shards) {
    sum += s.wall_seconds;
    slowest = std::max(slowest, s.wall_seconds);
  }
  const auto workers =
      static_cast<double>(std::max<std::size_t>(
          1, std::min(threads, shards.size())));
  auto& L = round.layers;
  L["sim.shard_wall_max_s"] = slowest;
  L["sim.serial_s"] = call_wall_s - slowest;
  L["sim.critical_path_speedup"] = ratio(sum, slowest);
  L["sim.shard_balance"] = r.shard_balance;
  L["sim.steal_count"] = static_cast<double>(r.steal_count);
  L["sim.prefiltered_updates"] = static_cast<double>(r.prefiltered_updates);
  L["util.pool_idle_ratio"] =
      std::max(0.0, 1.0 - ratio(sum, workers * call_wall_s));
  L["net.delivered_messages"] = static_cast<double>(r.delivered_messages);
  L["net.messages_per_event"] =
      ratio(static_cast<double>(r.delivered_messages),
            static_cast<double>(trace_events));
  L["net.uplink_busy_s"] = r.server_uplink.busy_seconds;
  L["net.uplink_queue_wait_s"] = r.server_uplink.total_queue_wait;
  L["sim.dispatch_lag_mean_s"] = r.dispatch_lag_seconds.mean();
  L["net.notice_messages"] = static_cast<double>(r.notice_messages);
  L["net.coalesce_ratio"] =
      ratio(static_cast<double>(r.coalesced_notices),
            static_cast<double>(r.coalesced_notices + r.notice_messages));
  const sim::ChaosYardsticks& c = r.chaos;
  L["net.faults_dropped"] = static_cast<double>(c.faults_dropped);
  L["net.partition_dropped"] = static_cast<double>(c.partition_dropped);
  L["net.crash_dropped"] = static_cast<double>(c.crash_dropped);
  L["core.protocol.timeouts"] = static_cast<double>(c.timeouts);
  L["core.protocol.retries"] = static_cast<double>(c.retries);
  L["core.protocol.late_replies"] = static_cast<double>(c.late_replies);
  // A timeout whose reply still arrived was not a loss: the deadline fired
  // on a slow message, and its retry was wasted work.
  L["core.protocol.spurious_timeout_ratio"] =
      ratio(static_cast<double>(c.late_replies),
            static_cast<double>(c.timeouts));
  L["core.protocol.failed_requests"] = static_cast<double>(c.failed_requests);
  L["core.protocol.budget_exceeded_retries"] =
      static_cast<double>(c.budget_exceeded_retries);
  L["core.protocol.resyncs"] = static_cast<double>(c.resyncs);
  L["core.protocol.unapplied_notices"] =
      static_cast<double>(c.notices_logged - c.notices_applied);
  L["core.protocol.cold_misses"] = static_cast<double>(c.cold_misses);
  L["core.protocol.max_reconvergence_s"] = c.max_reconvergence_seconds;
  L["core.admission.shed_queries"] = static_cast<double>(c.shed_queries);
  L["core.admission.degraded_queries"] =
      static_cast<double>(c.degraded_queries);
}

void add_cache_layers(const sim::RunResult& r, Round& round) {
  round.layers["cache.answer_ratio"] =
      ratio(static_cast<double>(r.cache_fresh + r.cache_after_updates),
            static_cast<double>(r.queries));
  round.layers["cache.objects_loaded"] = static_cast<double>(r.objects_loaded);
  round.layers["net.overhead_gb"] = r.overhead_traffic.gib();
}

void digest_run(Digest& d, const sim::RunResult& r) {
  d.add(r.total_traffic);
  d.add(r.postwarmup_traffic);
  for (const Bytes b : r.postwarmup_by_mechanism) d.add(b);
  d.add(r.overhead_traffic);
  d.add(r.queries);
  d.add(r.cache_fresh);
  d.add(r.cache_after_updates);
  d.add(r.shipped);
  d.add(r.objects_loaded);
  d.add(static_cast<std::int64_t>(r.postwarmup_latency.count()));
  d.add(r.postwarmup_latency.mean());
}

void digest_event(Digest& d, const sim::EventRunResult& r) {
  digest_run(d, r.replay.combined);
  for (const sim::RunResult& e : r.replay.per_endpoint) digest_run(d, e);
  d.add(r.response_p50());
  d.add(r.response_p99());
  d.add(static_cast<std::int64_t>(r.staleness_seconds.count()));
  d.add(r.staleness_seconds.mean());
  d.add(r.dispatch_lag_seconds.mean());
  d.add(r.sim_duration_seconds);
  d.add(r.delivered_messages);
  d.add(r.notice_messages);
  d.add(r.coalesced_notices);
  d.add(r.prefiltered_updates);
  const sim::ChaosYardsticks& c = r.chaos;
  for (const std::int64_t v :
       {c.timeouts, c.retries, c.failed_requests, c.late_replies,
        c.shed_replies, c.resyncs, c.notices_applied, c.notices_logged,
        c.shed_queries, c.degraded_queries, c.faults_dropped,
        c.partition_dropped, c.crash_restarts, c.crash_dropped,
        c.cold_misses, c.budget_exceeded_retries}) {
    d.add(v);
  }
  d.add(c.max_reconvergence_seconds);
}

/// Queries whose completion was counted. `queries` counts dispatches (the
/// open-loop engine counts a query when it sends it); the three outcome
/// counters are bumped by the completion callback, and a shed or failed
/// query completes too, with an empty result.
std::int64_t completed_queries(const sim::RunResult& r) {
  return r.cache_fresh + r.cache_after_updates + r.shipped;
}

Json run_json(const sim::RunResult& r) {
  Json j = Json::object();
  j.set("total_traffic_bytes", r.total_traffic.count());
  j.set("postwarmup_traffic_bytes", r.postwarmup_traffic.count());
  j.set("overhead_bytes", r.overhead_traffic.count());
  j.set("queries", r.queries);
  j.set("completed", completed_queries(r));
  j.set("cache_answers", r.cache_fresh + r.cache_after_updates);
  return j;
}

/// The end-to-end simulated outputs every workload reports.
void set_response(Json& sim, const util::QuantileSketch& sketch,
                  const util::StreamingStats& staleness) {
  sim.set("response_p50_s", sketch.quantile(0.50));
  sim.set("response_p99_s", sketch.quantile(0.99));
  sim.set("response_samples", sketch.size());
  sim.set("staleness_mean_s", staleness.mean());
  sim.set("staleness_samples", static_cast<std::int64_t>(staleness.count()));
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// paper_fig7b: the five Fig. 7b policies through the synchronous replay,
/// then VCover through the event engine over zero-latency links.
Round paper_round(const World& world, Tracer* tracer, bool traced) {
  const workload::Trace& trace = world.trace;
  const auto trace_events = static_cast<std::int64_t>(trace.order.size());
  Round round;
  SpanScope round_span{tracer, "bench.round"};
  std::vector<PolicyTimes> slots(6);
  Digest digest;
  Json policies = Json::object();
  sim::RunResult vcover_sync;
  util::QuantileSketch vcover_latency;
  double engine_busy_s = 0.0;
  const std::array<sim::PolicyKind, 5> kinds{
      sim::PolicyKind::kNoCache, sim::PolicyKind::kReplica,
      sim::PolicyKind::kBenefit, sim::PolicyKind::kVCover,
      sim::PolicyKind::kSOptimal};
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const sim::PolicyKind kind = kinds[i];
    const std::string label = lower(sim::to_string(kind));
    const auto start = Clock::now();
    sim::RunResult r;
    {
      SpanScope span{tracer, "sim.replay." + label};
      core::DeltaSystem system{&trace};
      std::unique_ptr<core::CachePolicy> policy = sim::make_policy(
          kind, system.cache(), trace, world.capacity, world.params);
      if (traced) {
        policy = std::make_unique<TimedPolicy>(std::move(policy),
                                               system.cache(), &slots[i]);
      }
      r = sim::run_policy(trace, system, *policy, 2000, sim::LatencyModel{},
                          kind == sim::PolicyKind::kVCover ? &vcover_latency
                                                           : nullptr);
    }
    const double wall = since(start);
    round.wall_s += wall;
    engine_busy_s += r.wall_seconds;
    round.layers["sim.replay_s." + label] = wall;
    digest_run(digest, r);
    policies.set(sim::to_string(kind), run_json(r));
    if (kind == sim::PolicyKind::kVCover) vcover_sync = r;
  }

  sim::EventRunResult event;
  {
    const auto start = Clock::now();
    SpanScope span{tracer, "sim.replay.vcover_event"};
    std::vector<std::uint32_t> assignment;
    {
      SpanScope split{tracer, "workload.split"};
      const auto t = Clock::now();
      assignment = workload::assign_queries(
          trace, 1, workload::SplitStrategy::kRoundRobin);
      round.layers["workload.split_s"] = since(t);
    }
    const auto call = Clock::now();
    {
      SpanScope run{tracer, "sim.run_policy_event"};
      event = sim::run_policy_event(
          trace, 1, workload::SplitStrategy::kRoundRobin,
          [&](core::CacheNode& cache, std::size_t) {
            std::unique_ptr<core::CachePolicy> policy =
                sim::make_policy(sim::PolicyKind::kVCover, cache, trace,
                                 world.capacity, world.params);
            if (traced) {
              policy = std::make_unique<TimedPolicy>(std::move(policy),
                                                     cache, &slots[5]);
            }
            return policy;
          },
          sim::EventEngineOptions{}, &assignment);
    }
    add_event_layers(event, since(call), 1, trace_events, round);
    const double wall = since(start);
    round.wall_s += wall;
    for (const sim::RunResult& s : event.replay.per_endpoint) {
      engine_busy_s += s.wall_seconds;
    }
    round.layers["sim.replay_s.vcover_event"] = wall;
    round.layers["sim.event_vs_sync"] =
        ratio(round.layers["sim.replay_s.vcover"], wall);
    digest_event(digest, event);
    policies.set("VCover (event)", run_json(event.replay.combined));
  }

  round.events = 6 * trace_events;
  round.replays = 6;
  round.digest = digest.hex();
  add_policy_layers(slots, engine_busy_s, round);
  add_flow_layers(slots[3].flow_bfs, slots[3].covers_computed, trace_events,
                  round);
  add_cache_layers(vcover_sync, round);
  round.sim.set("policies", std::move(policies));
  round.sim.set("wan_traffic_gb", vcover_sync.postwarmup_traffic.gib());
  round.sim.set("queries_offered", trace.queries.size());
  round.sim.set("query_fail_ratio", 0.0);
  set_response(round.sim, vcover_latency, event.staleness_seconds);
  return round;
}

/// The open-loop chaos configuration of chaos_writes.
sim::EventEngineOptions chaos_options(const Args& args,
                                      std::int64_t trace_events,
                                      std::size_t endpoints) {
  constexpr double kRate = 200.0;
  sim::EventEngineOptions o;
  o.default_link = net::LinkModel{12.5e6, 0.040};  // 100 Mbit/s, 40 ms
  o.series_stride = 5000;
  o.open_loop.enabled = true;
  o.open_loop.arrival = workload::ArrivalProcess::Kind::kPoisson;
  o.open_loop.rate_per_sec = kRate;
  o.open_loop.seed = derive_seed(args.seed, 1);
  // A bounded window would stall the arrival tape while a crashed cache
  // holds it full of timing-out queries (see the chaos suite).
  o.open_loop.max_in_flight = 4096;
  o.protocol.enabled = true;
  o.protocol.seed = derive_seed(args.seed, 2);
  o.admission.enabled = true;
  o.notice_batching.enabled = true;
  o.notice_batching.backlog_threshold_seconds = 0.0;
  net::FaultPlan& plan = o.fault_plan;
  plan.enabled = true;
  plan.seed = derive_seed(args.seed, 3);
  plan.default_faults.drop = 0.02;
  plan.default_faults.duplicate = 0.02;
  plan.default_faults.reorder = 0.05;
  // Each cache crash-stops once for 5% of the expected run, staggered so
  // at most one is down at a time; then one server<->cache path partitions
  // for another 5%.
  const double duration = static_cast<double>(trace_events) / kRate;
  for (std::size_t i = 0; i < endpoints; ++i) {
    const double down = (0.15 + 0.15 * static_cast<double>(i)) * duration;
    plan.crashes.push_back(net::CrashSchedule{
        "cache-" + std::to_string(i),
        {net::FaultWindow{down, down + 0.05 * duration}}});
  }
  plan.partitions.push_back(net::LinkPartition{
      "server", "cache-0", true,
      {net::FaultWindow{0.80 * duration, 0.85 * duration}}});
  return o;
}

/// fleet_ycsb_1m and chaos_writes: N caches through the parallel event
/// engine, the query split computed by the harness and timed as replay.
Round event_round(const World& world, const Args& args, Tracer* tracer,
                  bool traced) {
  const workload::Trace& trace = world.trace;
  const auto trace_events = static_cast<std::int64_t>(trace.order.size());
  const bool fleet = args.workload == "fleet_ycsb_1m";
  const std::size_t endpoints = fleet ? 16 : 4;
  const workload::SplitStrategy strategy =
      fleet ? workload::SplitStrategy::kBalancedByLoad
            : workload::SplitStrategy::kRoundRobin;
  const sim::PolicyKind kind =
      fleet ? sim::PolicyKind::kVCover : sim::PolicyKind::kBenefit;
  sim::EventEngineOptions options;
  if (fleet) {
    options.default_link = net::LinkModel{};  // 1 Gbit/s, 40 ms
    options.seconds_per_event = 0.02;         // unsaturated closed loop
    options.series_stride = 5000;
  } else {
    options = chaos_options(args, trace_events, endpoints);
  }
  options.parallel.num_threads = args.threads;
  const Bytes per_endpoint{static_cast<std::int64_t>(
      world.capacity.as_double() / static_cast<double>(endpoints))};

  Round round;
  std::vector<PolicyTimes> slots(endpoints);
  SpanScope round_span{tracer, "bench.round"};
  const auto start = Clock::now();
  std::vector<std::uint32_t> assignment;
  {
    SpanScope span{tracer, "workload.split"};
    const auto t = Clock::now();
    assignment = workload::assign_queries(trace, endpoints, strategy);
    round.layers["workload.split_s"] = since(t);
  }
  const auto call = Clock::now();
  sim::EventRunResult r;
  {
    SpanScope span{tracer, "sim.run_policy_event"};
    r = sim::run_policy_event(
        trace, endpoints, strategy,
        [&](core::CacheNode& cache, std::size_t index) {
          std::unique_ptr<core::CachePolicy> policy = sim::make_policy(
              kind, cache, trace, per_endpoint, world.params);
          if (traced) {
            policy = std::make_unique<TimedPolicy>(std::move(policy), cache,
                                                   &slots[index]);
          }
          return policy;
        },
        options, &assignment);
  }
  const double call_wall = since(call);
  round.wall_s = since(start);
  round.events = trace_events;
  round.replays = 1;

  Digest digest;
  digest_event(digest, r);
  round.digest = digest.hex();

  double engine_busy_s = 0.0;
  std::int64_t bfs = 0;
  std::int64_t covers = 0;
  for (const sim::RunResult& s : r.replay.per_endpoint) {
    engine_busy_s += s.wall_seconds;
  }
  for (const PolicyTimes& s : slots) {
    bfs += s.flow_bfs;
    covers += s.covers_computed;
  }
  add_policy_layers(slots, engine_busy_s, round);
  add_flow_layers(bfs, covers, trace_events, round);
  add_event_layers(r, call_wall, args.threads, trace_events, round);
  add_cache_layers(r.replay.combined, round);

  Json& sim = round.sim;
  sim.set("combined", run_json(r.replay.combined));
  Json::Array endpoints_json;
  for (const sim::RunResult& e : r.replay.per_endpoint) {
    endpoints_json.push_back(run_json(e));
  }
  sim.set("endpoints", std::move(endpoints_json));
  const auto offered = static_cast<std::int64_t>(trace.queries.size());
  sim.set("queries_offered", offered);
  sim.set("queries_completed", completed_queries(r.replay.combined));
  sim.set("queries_shed", r.chaos.shed_replies);
  sim.set("queries_failed", r.chaos.failed_requests);
  sim.set("wan_traffic_gb", r.replay.combined.postwarmup_traffic.gib());
  // A request that exhausted its retry budget is counted as a failed
  // query: an upper bound, since the protocol counts requests.
  sim.set("query_fail_ratio",
          ratio(static_cast<double>(r.chaos.shed_replies +
                                    r.chaos.failed_requests),
                static_cast<double>(offered)));
  sim.set("dispatch_lag_mean_s", r.dispatch_lag_seconds.mean());
  sim.set("sim_duration_s", r.sim_duration_seconds);
  set_response(sim, r.response_sketch, r.staleness_seconds);
  return round;
}

Round run_round(const World& world, const Args& args, Tracer* tracer,
                bool traced) {
  return args.workload == "paper_fig7b" ? paper_round(world, tracer, traced)
                                        : event_round(world, args, tracer,
                                                      traced);
}

Json round_json(const Round& r) {
  Json j = Json::object();
  j.set("wall_s", r.wall_s);
  j.set("events", r.events);
  j.set("replays", r.replays);
  j.set("digest", r.digest);
  return j;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Args& args) {
  Tracer tracer;
  Tracer* spans = args.traced ? &tracer : nullptr;
  Json report = Json::object();
  report.set("workload", args.workload);
  report.set("seed", static_cast<std::int64_t>(args.seed));
  report.set("threads", args.threads);
  report.set("scale", args.small ? "small" : "full");
  report.set("traced", args.traced);

  // ---- set-up, repeated; the first world is the one replayed ----
  World world;
  Json::Array setup_walls;
  Json::Array setup_digests;
  std::map<std::string, std::vector<double>> stage_walls;
  const auto setup_start = Clock::now();
  for (int i = 0;
       i < args.setups() || since(setup_start) < args.setup_seconds(); ++i) {
    SetupTimes times;
    World built = build_world(args, spans, times);
    setup_walls.push_back(times.total_s);
    setup_digests.push_back(setup_digest(built));
    stage_walls["storage.density_s"].push_back(times.density_s);
    stage_walls["htm.partition_map_s"].push_back(times.partition_map_s);
    stage_walls["workload.trace_gen_s"].push_back(times.trace_gen_s);
    if (i == 0) world = std::move(built);
    std::cerr << "perfbench: set-up " << i + 1 << " " << times.total_s
              << " s\n";
  }
  Json setup = Json::object();
  setup.set("walls_s", std::move(setup_walls));
  setup.set("digests", std::move(setup_digests));
  setup.set("events", world.trace.order.size());
  report.set("setup", std::move(setup));

  // ---- replay rounds for the measurement window; a traced run
  // alternates untraced and traced rounds so the pairs see the same
  // machine conditions ----
  std::vector<Round> plain;
  std::vector<Round> traced;
  const auto window = Clock::now();
  while (since(window) < args.seconds ||
         static_cast<int>(plain.size()) < args.min_rounds()) {
    plain.push_back(run_round(world, args, nullptr, false));
    if (args.traced) traced.push_back(run_round(world, args, spans, true));
  }
  std::cerr << "perfbench: " << plain.size() << " rounds in "
            << since(window) << " s\n";

  Json::Array rounds_json;
  for (const Round& r : plain) rounds_json.push_back(round_json(r));
  report.set("rounds", std::move(rounds_json));
  report.set("sim", plain.front().sim);

  if (args.traced) {
    Json::Array traced_json;
    for (const Round& r : traced) traced_json.push_back(round_json(r));
    report.set("traced_rounds", std::move(traced_json));
    // Per-layer metrics: medians over the traced rounds (counts are equal
    // in every round, so their median is the count itself).
    std::map<std::string, std::vector<double>> samples = stage_walls;
    for (const Round& r : traced) {
      for (const auto& [name, value] : r.layers) samples[name].push_back(value);
    }
    Json layers = Json::object();
    for (const auto& [name, values] : samples) {
      layers.set(name, median(values));
    }
    report.set("layers", std::move(layers));
    Json self = Json::object();
    for (const auto& [name, seconds] : tracer.self_by_name()) {
      self.set(name, seconds);
    }
    report.set("self_time_s", std::move(self));
    if (!args.trace_out.empty()) {
      Json meta = Json::object();
      meta.set("workload", args.workload);
      meta.set("seed", static_cast<std::int64_t>(args.seed));
      if (!tracer.write_chrome_trace(args.trace_out, std::move(meta))) {
        std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
        return 1;
      }
      report.set("trace_file", args.trace_out);
      report.set("trace_spans", tracer.spans().size());
    }
  }
  report.set("peak_rss_mb", peak_rss_mb());
  report.dump(std::cout);
  std::cout << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto cfg = util::Config::from_args(argc, argv);
    Args args;
    args.workload = cfg.get_string("workload", "");
    if (args.workload != "paper_fig7b" && args.workload != "fleet_ycsb_1m" &&
        args.workload != "chaos_writes") {
      std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
    const std::int64_t seed = cfg.get_int("seed", 1);
    const std::int64_t threads = cfg.get_int("threads", 4);
    args.seconds = cfg.get_double("seconds", 10.0);
    if (seed < 0 || threads < 1 || args.seconds < 0.0) {
      std::cerr << "perfbench: seed and seconds must be >= 0, threads "
                   ">= 1\n";
      return 2;
    }
    args.seed = static_cast<std::uint64_t>(seed);
    args.threads = static_cast<std::size_t>(threads);
    args.traced = cfg.get_bool("traced", false);
    args.small = cfg.get_string("scale", "full") == "small";
    args.trace_out = cfg.get_string("trace_out", "");
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
