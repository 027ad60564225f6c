#pragma once
// Shared pieces of the end-to-end benchmark: the seeded workload streams
// (workloads.cpp), the in-memory span tracer and the layer-by-layer replay
// (replay.cpp).  main.cpp drives them; README.md documents the workloads and
// metrics.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "patchsec/core/session.hpp"
#include "patchsec/service/eval_service.hpp"

namespace e2e {

namespace core = patchsec::core;
namespace enterprise = patchsec::enterprise;
namespace service = patchsec::service;

using Clock = std::chrono::steady_clock;
using Wave = std::map<enterprise::ServerRole, unsigned>;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// splitmix64: the benchmark's only source of randomness, seeded from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n) noexcept { return static_cast<std::size_t>(next() % n); }
  /// Uniform in [0, 1).
  double unit() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

enum class WorkloadKind { kSteadySweep, kTransientWaves, kHotMixed };

[[nodiscard]] std::optional<WorkloadKind> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(WorkloadKind kind);

/// What a service workload hands service::EvalService: the scenario, the
/// service configuration, the closed-loop client's shape and an infinite
/// request stream that depends only on the seed.
struct ServiceWorkload {
  service::ServiceOptions options;
  std::size_t window = 8;  ///< outstanding requests of the closed-loop client.
  std::size_t burst = 1;   ///< requests submitted back to back (one panel's worth).
  std::size_t warmup = 0;  ///< stream requests served, untimed, before the run.
  std::function<service::EvalRequest()> next;
};

[[nodiscard]] ServiceWorkload make_service_workload(WorkloadKind kind, std::uint64_t seed);

/// One request as an eval_daemon input line.
[[nodiscard]] std::string daemon_line(std::size_t id, const service::EvalRequest& request);

// --- tracing ----------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's epoch.
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;   ///< kNoParent for roots.
  std::uint64_t op = 0;       ///< the operation (stream index) the span serves.
};

/// Spans recorded from the benchmark's own code, kept in memory and written
/// out when the run ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint64_t op);
  void end(std::uint32_t id);
  /// Run f() inside a span and return its result.
  template <typename F>
  auto span(const char* name, std::uint32_t parent, std::uint64_t op, F&& f) {
    const std::uint32_t id = begin(name, parent, op);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      end(id);
    } else {
      auto result = f();
      end(id);
      return result;
    }
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Summed duration (ms) of every span called `name`.
  [[nodiscard]] double total_ms(std::string_view name) const;
  /// Summed duration (ms) of the childless spans below spans named `subtree`:
  /// the time the replay attributes to single layer calls.
  [[nodiscard]] double leaf_ms_under(std::string_view subtree) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Counts gathered at the replayed layer boundaries.
struct LayerCounts {
  std::size_t keys = 0;               ///< replayed solves (a panel counts once).
  std::size_t new_designs = 0;        ///< keys that paid the HARM build.
  std::size_t tangible_states = 0;    ///< upper-layer CTMC states, summed over keys.
  std::size_t steady_iterations = 0;  ///< Gauss-Seidel iterations (lower + upper layer).
  std::size_t matvecs = 0;            ///< uniformization sweeps.
  std::size_t panels = 0;             ///< transient panels replayed.
  std::size_t rhs = 0;                ///< right-hand sides over those panels.
  double spmv_bytes = 0.0;            ///< computed, not measured: see README.md.
  std::size_t attack_paths = 0;       ///< HARM paths enumerated (before patch).
  std::size_t truncated_paths = 0;
  std::size_t mismatches = 0;         ///< replay results not bit-identical to Session's.
};

/// Replays solved keys through the layers' public functions in the order
/// Session calls them, one span per call, next to a bench-owned Session whose
/// evaluate call is the "core.evaluate" span the replay attributes.
class Replayer {
 public:
  Replayer(core::Scenario scenario, Tracer& tracer);

  void steady(std::uint64_t op, const enterprise::RedundancyDesign& design, double cadence);
  void transient(std::uint64_t op, const enterprise::RedundancyDesign& design,
                 const std::vector<Wave>& waves, double cadence);

  [[nodiscard]] const LayerCounts& counts() const noexcept { return counts_; }

 private:
  const std::map<enterprise::ServerRole, patchsec::avail::AggregatedRates>& lower_layer(
      std::uint64_t op, std::uint32_t parent, double cadence);
  void security(std::uint64_t op, std::uint32_t parent, const enterprise::RedundancyDesign& design);
  void verify_network(
      std::uint64_t op, std::uint32_t parent, const enterprise::RedundancyDesign& design,
      const std::map<enterprise::ServerRole, patchsec::avail::AggregatedRates>& rates);

  core::Scenario scenario_;
  core::Session session_;
  Tracer& tracer_;
  LayerCounts counts_;
  std::map<double, std::map<enterprise::ServerRole, patchsec::avail::AggregatedRates>> rates_;
  std::set<std::array<unsigned, enterprise::kRoleCount>> designs_seen_;
  patchsec::linalg::StationarySolver aggregation_ws_;
  patchsec::linalg::StationarySolver availability_ws_;
  patchsec::ctmc::TransientSolver transient_ws_;
};

}  // namespace e2e
