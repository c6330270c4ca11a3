// Policy-layer probe for the traced run: a CachePolicy decorator that
// forwards every virtual to the wrapped policy and accumulates the wall
// time and call count of the decision entry points. Per-call spans would
// be millions per replay, so the policy layer is measured by counters at
// its boundary instead.
//
// The engines never call CachePolicy::on_update: every policy registers
// its on_update as the cache's invalidation handler instead. The probe
// re-registers that handler on the same cache, wrapped in a timer and
// forwarding to the wrapped policy's on_update, which is what the
// policy's own handler does. The traced run checks that its simulated
// outputs equal the untraced run's, so a policy whose handler did
// anything else would show.
//
// Each decorator writes only its own PolicyTimes slot, which the harness
// owns and sizes before the replay starts; the parallel engines confine
// every policy instance to one worker, so the slots need no locking.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/cache_node.h"
#include "core/policy.h"
#include "core/vcover_policy.h"

namespace perfbench {

struct alignas(64) PolicyTimes {
  double query_s = 0.0;
  double update_s = 0.0;
  std::int64_t query_calls = 0;
  std::int64_t update_calls = 0;
  /// VCover's incremental min-cut work, read when the policy is destroyed
  /// (the engines own and destroy the policies before they return).
  std::int64_t flow_bfs = 0;
  std::int64_t covers_computed = 0;
};

class TimedPolicy final : public delta::core::CachePolicy {
 public:
  TimedPolicy(std::unique_ptr<delta::core::CachePolicy> inner,
              delta::core::CacheNode& cache, PolicyTimes* times)
      : inner_(std::move(inner)), times_(times) {
    cache.set_invalidation_handler(
        [this](const delta::workload::Update& u) { on_update(u); });
  }

  ~TimedPolicy() override {
    if (const auto* vcover =
            dynamic_cast<const delta::core::VCoverPolicy*>(inner_.get())) {
      times_->flow_bfs = vcover->update_manager().flow_bfs_count();
      times_->covers_computed = vcover->update_manager().covers_computed();
    }
  }
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;

  void on_update(const delta::workload::Update& u) override {
    ++times_->update_calls;
    const Timer timer{*this, times_->update_s};
    inner_->on_update(u);
  }

  delta::core::QueryOutcome on_query(
      const delta::workload::Query& q) override {
    ++times_->query_calls;
    const Timer timer{*this, times_->query_s};
    return inner_->on_query(q);
  }

  void on_query_async(const delta::workload::Query& q,
                      QueryDone done) override {
    ++times_->query_calls;
    const Timer timer{*this, times_->query_s};
    inner_->on_query_async(q, std::move(done));
  }

  void set_nonblocking_invalidations(bool on) override {
    inner_->set_nonblocking_invalidations(on);
  }
  void set_admission(const delta::core::AdmissionOptions& options) override {
    inner_->set_admission(options);
  }
  [[nodiscard]] std::int64_t degraded_queries() const override {
    return inner_->degraded_queries();
  }
  void on_crash_restart() override { inner_->on_crash_restart(); }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  /// Times the outermost entry only: a completion callback may dispatch
  /// the next query from inside a policy call, and that nested time is
  /// already inside the outer interval.
  class Timer {
   public:
    Timer(TimedPolicy& owner, double& sink)
        : owner_(owner), sink_(sink), outer_(owner.depth_++ == 0) {
      if (outer_) start_ = std::chrono::steady_clock::now();
    }
    ~Timer() {
      --owner_.depth_;
      if (outer_) {
        sink_ += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
      }
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    TimedPolicy& owner_;
    double& sink_;
    bool outer_;
    std::chrono::steady_clock::time_point start_{};
  };

  std::unique_ptr<delta::core::CachePolicy> inner_;
  PolicyTimes* times_;
  int depth_ = 0;
};

}  // namespace perfbench
