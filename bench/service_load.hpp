// Shared load generation for the evaluation-service benchmarks: the same
// request streams drive the standalone `bench_service` CLI and the two
// schema-v6 `run_benchmarks` rows, so the committed BENCH_RESULTS.json and
// the CI smoke step measure identical work.
//
// Throughput load (service_throughput_k6): a duplicate-heavy steady-state
// stream over a deterministic design pool in which every design fields a
// 6-replica tier (the k=6 load) — 10% distinct cold keys followed by 90%
// repeats, so the cache hit rate is exactly 0.9 by construction and the
// sustained rate divides the whole stream (cold solves included) by wall
// time.  Bit-identity of cached replies against fresh solo-Session solves is
// asserted on a sample of the pool.
//
// Transient batch load (service_transient_batch_k6): eight same-structure
// patch-wave requests enqueued against a deferred-start service, claimed as
// ONE evaluate_transient_batch panel when start() runs; grouping, cache
// bit-identity on resubmission, and 1e-10 agreement with width-1 solo panels
// are all asserted into the row's `converged` flag.

#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <vector>

#include "patchsec/core/scenario.hpp"
#include "patchsec/service/eval_service.hpp"

namespace patchsec::benchsvc {

inline std::uint64_t lcg_next(std::uint64_t& state) noexcept {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

inline bool same_bits(double a, double b) noexcept {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise payload equality of two reports (metrics + curve; diagnostics are
/// allowed to differ — wall times never repeat).
inline bool payload_bit_identical(const core::EvalReport& a, const core::EvalReport& b) {
  if (!(a.design == b.design)) return false;
  if (!same_bits(a.coa, b.coa)) return false;
  if (!same_bits(a.patch_interval_hours, b.patch_interval_hours)) return false;
  if (!same_bits(a.before_patch.attack_impact, b.before_patch.attack_impact) ||
      !same_bits(a.before_patch.attack_success_probability,
                 b.before_patch.attack_success_probability) ||
      a.before_patch.exploitable_vulnerabilities != b.before_patch.exploitable_vulnerabilities ||
      a.before_patch.attack_paths != b.before_patch.attack_paths ||
      a.before_patch.entry_points != b.before_patch.entry_points) {
    return false;
  }
  if (!same_bits(a.after_patch.attack_impact, b.after_patch.attack_impact) ||
      !same_bits(a.after_patch.attack_success_probability,
                 b.after_patch.attack_success_probability)) {
    return false;
  }
  if (a.transient.time_points_hours.size() != b.transient.time_points_hours.size()) return false;
  for (std::size_t j = 0; j < a.transient.coa.size(); ++j) {
    if (!same_bits(a.transient.coa[j], b.transient.coa[j])) return false;
  }
  return same_bits(a.transient.accumulated_coa_hours, b.transient.accumulated_coa_hours);
}

/// Deterministic pool of `distinct` designs, every one with a 6-replica tier
/// (the first is the uniform k=6 design itself).
inline std::vector<enterprise::RedundancyDesign> make_design_pool(std::size_t distinct) {
  std::vector<enterprise::RedundancyDesign> pool;
  pool.push_back(enterprise::RedundancyDesign{{6, 6, 6, 6}});
  std::uint64_t seed = 20170626;
  while (pool.size() < distinct) {
    enterprise::RedundancyDesign design;
    for (std::size_t i = 0; i < enterprise::kRoleCount; ++i) {
      design.counts[i] = 1 + static_cast<unsigned>(lcg_next(seed) % 6);
    }
    design.counts[lcg_next(seed) % enterprise::kRoleCount] = 6;
    bool duplicate = false;
    for (const enterprise::RedundancyDesign& existing : pool) {
      duplicate = duplicate || existing == design;
    }
    if (!duplicate) pool.push_back(design);
  }
  return pool;
}

struct ThroughputOutcome {
  std::size_t requests = 0;
  std::size_t distinct = 0;
  double wall_seconds = 0.0;
  double evals_per_second = 0.0;
  double cache_hit_rate = 0.0;
  std::uint64_t solves = 0;
  std::uint64_t coalesced = 0;
  bool bit_identical = false;  ///< cached replies == fresh solo solves, bitwise.
  bool meets_targets = false;  ///< >= 5000 evals/s AND >= 0.8 hit rate AND bit-identical.
  std::size_t tangible_states = 0;     ///< of the uniform k=6 report.
  std::size_t solver_iterations = 0;   ///< of the uniform k=6 report.
};

/// The duplicate-heavy (90% repeat) steady-state load: `total_requests`
/// requests over a total/10-key pool, cold keys first (each solved once),
/// then the repeat stream — all cache hits by construction.
inline ThroughputOutcome run_throughput_load(std::size_t total_requests,
                                             std::size_t workers = 2) {
  ThroughputOutcome outcome;
  outcome.requests = total_requests;
  outcome.distinct = total_requests / 10 == 0 ? 1 : total_requests / 10;
  const std::vector<enterprise::RedundancyDesign> pool = make_design_pool(outcome.distinct);

  service::ServiceOptions options;
  options.workers = workers;
  options.queue_capacity = pool.size() + 8;
  service::EvalService svc(core::Scenario::paper_case_study(), options);

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::future<service::ServiceReply>> cold;
    cold.reserve(pool.size());
    for (const enterprise::RedundancyDesign& design : pool) {
      service::EvalRequest request;
      request.design = design;
      cold.push_back(svc.submit(std::move(request)));
    }
    for (std::future<service::ServiceReply>& future : cold) {
      const service::ServiceReply reply = future.get();
      if (reply.report.design == pool.front()) {
        outcome.tangible_states = reply.report.availability_diagnostics.tangible_states;
        outcome.solver_iterations = reply.report.total_solver_iterations();
      }
    }
  }
  std::uint64_t seed = 42;
  for (std::size_t n = pool.size(); n < total_requests; ++n) {
    service::EvalRequest request;
    request.design = pool[lcg_next(seed) % pool.size()];
    (void)svc.evaluate(std::move(request));
  }
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  outcome.evals_per_second = static_cast<double>(total_requests) / outcome.wall_seconds;

  const service::ServiceStats stats = svc.stats();
  outcome.cache_hit_rate = stats.cache.hit_rate();
  outcome.solves = stats.solves;
  outcome.coalesced = stats.coalesced;

  // Bit-identity: cached replies against fresh solves on an untouched
  // Session (off the clock; the extra lookups land after the stats snapshot).
  const core::Session solo(core::Scenario::paper_case_study());
  outcome.bit_identical = true;
  std::uint64_t sample_seed = 7;
  for (std::size_t s = 0; s < 5 && s < pool.size(); ++s) {
    const enterprise::RedundancyDesign& design =
        s == 0 ? pool.front() : pool[lcg_next(sample_seed) % pool.size()];
    service::EvalRequest request;
    request.design = design;
    const service::ServiceReply cached = svc.evaluate(std::move(request));
    outcome.bit_identical = outcome.bit_identical &&
                            cached.source == service::ReplySource::kCache &&
                            payload_bit_identical(cached.report, solo.evaluate(design));
  }
  outcome.meets_targets = outcome.evals_per_second >= 5000.0 &&
                          outcome.cache_hit_rate >= 0.8 && outcome.bit_identical;
  return outcome;
}

struct TransientBatchOutcome {
  std::size_t requests = 0;
  double wall_seconds = 0.0;
  double evals_per_second = 0.0;
  std::size_t batch_width = 0;  ///< panel width every reply reports.
  bool grouped = false;         ///< all requests rode ONE panel solve.
  bool cached_bit_identical = false;  ///< resubmission == first replies, bitwise.
  bool matches_solo = false;          ///< 1e-10 vs width-1 solo panels.
  std::size_t tangible_states = 0;
  std::size_t matvec_count = 0;
  [[nodiscard]] bool converged() const noexcept {
    return grouped && cached_bit_identical && matches_solo;
  }
};

/// Eight same-structure k=6 patch-wave requests against a deferred-start
/// service: enqueue all, start(), and every reply must come back from one
/// evaluate_transient_batch panel.  `curves` (optional) receives the coa(t)
/// curves for external comparison.
inline TransientBatchOutcome run_transient_batch_load(
    std::size_t width = 8, std::vector<core::EvalReport>* reports_out = nullptr) {
  TransientBatchOutcome outcome;
  outcome.requests = width;

  std::vector<service::EvalRequest> requests;
  for (unsigned i = 1; i <= width; ++i) {
    service::EvalRequest request;
    request.design = enterprise::RedundancyDesign{{6, 6, 6, 6}};
    request.kind = service::RequestKind::kTransient;
    for (unsigned role = 0; role < enterprise::kRoleCount; ++role) {
      if (i & (1u << role)) request.wave.emplace(static_cast<enterprise::ServerRole>(role), 1u);
    }
    requests.push_back(std::move(request));
  }

  service::ServiceOptions options;
  options.workers = 1;
  options.start_workers = false;  // everything queued before the worker looks
  options.max_batch = width;
  options.queue_capacity = width + 4;
  service::EvalService svc(core::Scenario::paper_case_study(), options);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<service::ServiceReply>> futures;
  futures.reserve(requests.size());
  for (const service::EvalRequest& request : requests) futures.push_back(svc.submit(request));
  svc.start();
  std::vector<service::ServiceReply> replies;
  replies.reserve(futures.size());
  for (std::future<service::ServiceReply>& future : futures) replies.push_back(future.get());
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  outcome.evals_per_second = static_cast<double>(width) / outcome.wall_seconds;

  outcome.grouped = svc.stats().solves == 1;
  outcome.batch_width = replies.front().batch_width;
  for (const service::ServiceReply& reply : replies) {
    outcome.grouped = outcome.grouped && reply.batch_width == width &&
                      reply.source == service::ReplySource::kSolve;
  }
  outcome.tangible_states = replies.front().report.availability_diagnostics.tangible_states;
  outcome.matvec_count = replies.front().report.transient_diagnostics.matvec_count;

  // Resubmitting the identical requests must be served from the cache,
  // bit-identical to the first replies.
  outcome.cached_bit_identical = true;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const service::ServiceReply cached = svc.evaluate(requests[i]);
    outcome.cached_bit_identical = outcome.cached_bit_identical &&
                                   cached.source == service::ReplySource::kCache &&
                                   payload_bit_identical(cached.report, replies[i].report);
  }

  // Width-1 solo panels as the numeric oracle, held to 1e-10 here (the
  // kernel suite pins a column's bit-identity across panel widths).
  const core::Session solo(core::Scenario::paper_case_study());
  outcome.matches_solo = true;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::vector<core::EvalReport> single =
        solo.evaluate_transient_batch(requests[i].design, {requests[i].wave});
    const core::TransientCurve& got = replies[i].report.transient;
    const core::TransientCurve& want = single.front().transient;
    outcome.matches_solo = outcome.matches_solo && got.coa.size() == want.coa.size();
    for (std::size_t j = 0; j < want.coa.size() && outcome.matches_solo; ++j) {
      outcome.matches_solo = std::abs(got.coa[j] - want.coa[j]) <= 1e-10;
    }
  }

  if (reports_out) {
    reports_out->clear();
    for (service::ServiceReply& reply : replies) reports_out->push_back(std::move(reply.report));
  }
  return outcome;
}

}  // namespace patchsec::benchsvc
