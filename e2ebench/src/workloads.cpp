// The three workloads as seeded request streams.  Each stream is infinite and
// a pure function of the seed; composition is stratified (fixed shares per
// block of requests, the seed only picks keys and order) so that runs with
// different seeds measure the same mix.  README.md says why each exists.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <sstream>

#include "bench.hpp"

namespace e2e {

namespace {

using enterprise::RedundancyDesign;
using enterprise::ServerRole;

constexpr ServerRole kRoles[] = {ServerRole::kDns, ServerRole::kWeb, ServerRole::kApp,
                                 ServerRole::kDb};

std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

/// Design with every tier in [1, base]: `id` in [0, base^4) read as base-`base` digits.
RedundancyDesign design_from_id(std::size_t id, unsigned base) {
  RedundancyDesign design;
  for (unsigned& count : design.counts) {
    count = 1 + static_cast<unsigned>(id % base);
    id /= base;
  }
  return design;
}

/// Every patch wave of `design` (per tier, 0..n servers down), in a fixed order.
std::vector<Wave> all_waves(const RedundancyDesign& design) {
  std::vector<Wave> waves(1);
  for (std::size_t r = 0; r < enterprise::kRoleCount; ++r) {
    std::vector<Wave> grown;
    for (const Wave& wave : waves) {
      for (unsigned down = 0; down <= design.counts[r]; ++down) {
        Wave next = wave;
        if (down > 0) next[kRoles[r]] = down;
        grown.push_back(std::move(next));
      }
    }
    waves = std::move(grown);
  }
  return waves;
}

service::EvalRequest steady_request(const RedundancyDesign& design, double cadence) {
  service::EvalRequest request;
  request.design = design;
  request.patch_interval_hours = cadence;
  return request;
}

service::EvalRequest transient_request(const RedundancyDesign& design, double cadence,
                                       Wave wave) {
  service::EvalRequest request = steady_request(design, cadence);
  request.kind = service::RequestKind::kTransient;
  request.wave = std::move(wave);
  return request;
}

// --- steady_sweep -------------------------------------------------------------
// Cold steady-state sweep: distinct (design, cadence) keys over tiers 1-6 and
// eight cadences, plus every kWideEvery-th request with one tier widened to
// 50-800 servers.  The wide requests cycle through five size bands and the
// four roles, so every run sees the same tail at the same spacing.  The
// bands stop at 800: from about 840 servers at the 168 h cadence the steady
// solver stalls into power iteration (18-26 s for one request, README.md),
// which no 15 s run can absorb.

constexpr double kSweepCadences[] = {168.0, 240.0, 336.0, 480.0, 720.0, 1008.0, 1440.0, 2160.0};
constexpr std::size_t kSweepDesigns = 6 * 6 * 6 * 6;
constexpr std::size_t kWideEvery = 50;
struct Band {
  unsigned lo;
  unsigned hi;
};
constexpr Band kWideBands[] = {{50, 60}, {100, 120}, {200, 240}, {400, 480}, {700, 800}};

std::function<service::EvalRequest()> steady_sweep_stream(std::uint64_t seed) {
  struct State {
    Rng rng;
    std::vector<std::size_t> narrow;  // permutation of design x cadence keys
    std::size_t cursor = 0;
    std::size_t index = 0;
    std::size_t wide_count = 0;
  };
  auto state = std::make_shared<State>(State{Rng(seed), {}, 0, 0, 0});
  state->narrow = shuffled(kSweepDesigns * std::size(kSweepCadences), state->rng);
  return [state] {
    State& s = *state;
    if (++s.index % kWideEvery == 0) {
      const std::size_t w = s.wide_count++;
      const Band band = kWideBands[w % std::size(kWideBands)];
      RedundancyDesign design;  // all tiers 1
      design.counts[(w / std::size(kWideBands)) % enterprise::kRoleCount] =
          band.lo + static_cast<unsigned>(s.rng.below(band.hi - band.lo + 1));
      return steady_request(design, kSweepCadences[s.rng.below(std::size(kSweepCadences))]);
    }
    // Past one pass over the key space the cadences move up 1% per pass, so
    // keys stay distinct however fast the host is.
    const std::size_t pass = s.cursor / s.narrow.size();
    const std::size_t key = s.narrow[s.cursor++ % s.narrow.size()];
    return steady_request(design_from_id(key % kSweepDesigns, 6),
                          kSweepCadences[key / kSweepDesigns] *
                              (1.0 + 0.01 * static_cast<double>(pass)));
  };
}

// --- transient_waves ----------------------------------------------------------
// Twelve structures: six designs with tiers 1-6 and 432-1260 states, at two
// cadences.  The 2401-state [6,6,6,6], twice the next largest, is left out:
// a run's p99 rode on its few panels.  Each cycle visits every structure
// once, with a burst of kBurst distinct waves drawn without replacement
// (seeded) from that structure's waves.  The cycle order is fixed and
// alternates large and small structures: a seeded order would let the run's
// few worst queues (two large bursts back to back) decide p99.

constexpr RedundancyDesign kWaveDesigns[] = {{{1, 6, 6, 6}}, {{2, 5, 5, 3}}, {{3, 4, 5, 4}},
                                             {{4, 5, 4, 4}}, {{5, 5, 6, 4}}, {{6, 4, 4, 5}}};
constexpr double kWaveCadences[] = {720.0, 1440.0};
constexpr std::size_t kBurst = 8;
/// Structure (design index * 2 + cadence index) visited at each cycle step.
constexpr std::size_t kWaveCycle[] = {10, 3, 8, 5, 6, 1, 11, 2, 9, 4, 7, 0};

std::function<service::EvalRequest()> transient_waves_stream(std::uint64_t seed) {
  struct Structure {
    RedundancyDesign design;
    double cadence = 0.0;
    std::vector<Wave> waves;  // seeded order
    std::size_t cursor = 0;
  };
  struct State {
    Rng rng;
    std::vector<Structure> structures;
    std::size_t index = 0;
  };
  auto state = std::make_shared<State>(State{Rng(seed), {}, 0});
  for (const RedundancyDesign& design : kWaveDesigns) {
    for (double cadence : kWaveCadences) {
      std::vector<Wave> waves = all_waves(design);
      std::vector<Wave> order;
      order.reserve(waves.size());
      for (std::size_t i : shuffled(waves.size(), state->rng)) order.push_back(waves[i]);
      state->structures.push_back(Structure{design, cadence, std::move(order), 0});
    }
  }
  return [state] {
    State& s = *state;
    Structure& st = s.structures[kWaveCycle[(s.index++ / kBurst) % std::size(kWaveCycle)]];
    return transient_request(st.design, st.cadence, st.waves[st.cursor++ % st.waves.size()]);
  };
}

// --- hot_mixed ----------------------------------------------------------------
// The stream first requests every key once (the untimed warm-up, which fills
// the cache), then draws Zipf(kZipfExponent) popularity over a steady +
// transient key set of small designs: every timed request is a cache hit,
// served on the client thread.  Popularity ranks are stratified by key class
// (steady by state count, transient by design), each class spread evenly over
// the ranks and permuted within itself by the seed, so every seed copies the
// same mix of report sizes.

constexpr double kZipfExponent = 1.1;
constexpr double kHotCadences[] = {240.0, 480.0, 720.0, 1440.0};
constexpr RedundancyDesign kHotWaveDesigns[] = {
    {{1, 1, 1, 1}}, {{1, 2, 2, 1}}, {{2, 2, 1, 1}}, {{2, 2, 2, 2}}};

/// Class of a hot_mixed key: steady keys by upper-layer state count,
/// transient keys by design.
std::size_t key_class(const service::EvalRequest& request) {
  if (request.kind == service::RequestKind::kTransient) {
    const auto it = std::find(std::begin(kHotWaveDesigns), std::end(kHotWaveDesigns),
                              request.design);
    return 3 + static_cast<std::size_t>(it - std::begin(kHotWaveDesigns));
  }
  std::size_t states = 1;
  for (unsigned count : request.design.counts) states *= count + 1;
  return states <= 36 ? 0 : states <= 96 ? 1 : 2;
}

std::vector<service::EvalRequest> hot_keys() {
  std::vector<service::EvalRequest> keys;
  for (double cadence : kHotCadences) {
    for (std::size_t id = 0; id < 3 * 3 * 3 * 3; ++id) {
      keys.push_back(steady_request(design_from_id(id, 3), cadence));
    }
  }
  for (const RedundancyDesign& design : kHotWaveDesigns) {
    for (Wave& wave : all_waves(design)) {
      keys.push_back(transient_request(design, 720.0, std::move(wave)));
    }
  }
  return keys;
}

std::function<service::EvalRequest()> hot_mixed_stream(std::uint64_t seed) {
  struct State {
    Rng rng;
    std::vector<service::EvalRequest> keys;  // ordered by popularity rank
    std::vector<double> cdf;
    std::size_t index = 0;
  };
  auto state = std::make_shared<State>(State{Rng(seed), {}, {}, 0});
  const std::vector<service::EvalRequest> keys = hot_keys();
  std::map<std::size_t, std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < keys.size(); ++i) classes[key_class(keys[i])].push_back(i);
  std::vector<std::pair<double, std::size_t>> ranked;  // (position in [0, 1), key)
  for (const auto& [cls, members] : classes) {
    const std::vector<std::size_t> order = shuffled(members.size(), state->rng);
    const double offset = static_cast<double>(cls + 1) / static_cast<double>(classes.size() + 1);
    for (std::size_t i = 0; i < members.size(); ++i) {
      ranked.emplace_back((static_cast<double>(i) + offset) / static_cast<double>(members.size()),
                          members[order[i]]);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  for (const auto& entry : ranked) state->keys.push_back(keys[entry.second]);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= keys.size(); ++rank) {
    total += std::pow(static_cast<double>(rank), -kZipfExponent);
    state->cdf.push_back(total);
  }
  for (double& c : state->cdf) c /= total;
  return [state] {
    State& s = *state;
    if (s.index < s.keys.size()) return s.keys[s.index++];
    const auto it = std::upper_bound(s.cdf.begin(), s.cdf.end(), s.rng.unit());
    const std::size_t rank = std::min<std::size_t>(it - s.cdf.begin(), s.keys.size() - 1);
    return s.keys[rank];
  };
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  for (WorkloadKind kind :
       {WorkloadKind::kSteadySweep, WorkloadKind::kTransientWaves, WorkloadKind::kHotMixed}) {
    if (name == workload_name(kind)) return kind;
  }
  return std::nullopt;
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSteadySweep: return "steady_sweep";
    case WorkloadKind::kTransientWaves: return "transient_waves";
    case WorkloadKind::kHotMixed: return "hot_mixed";
  }
  return "?";
}

ServiceWorkload make_service_workload(WorkloadKind kind, std::uint64_t seed) {
  ServiceWorkload w;
  w.options.workers = 2;
  switch (kind) {
    case WorkloadKind::kSteadySweep:
      // One worker: every request is a cold solve, and a second worker's
      // share of the run swings with how many vCPUs the host leaves free.
      w.options.workers = 1;
      w.window = 8;
      w.next = steady_sweep_stream(seed);
      break;
    case WorkloadKind::kTransientWaves:
      // Four bursts outstanding keep a whole burst queued whenever a worker
      // frees up, so panels form from complete bursts.
      w.window = 4 * kBurst;
      w.burst = kBurst;
      w.options.max_batch = kBurst;
      w.next = transient_waves_stream(seed);
      break;
    case WorkloadKind::kHotMixed:
      w.window = 8;
      w.warmup = hot_keys().size();
      w.next = hot_mixed_stream(seed);
      break;
  }
  return w;
}

std::string daemon_line(std::size_t id, const service::EvalRequest& request) {
  std::ostringstream out;
  out.precision(17);
  const bool transient = request.kind == service::RequestKind::kTransient;
  out << "{\"id\": " << id << ", \"kind\": \"" << (transient ? "transient" : "steady")
      << "\", \"design\": [" << request.design.counts[0] << ", " << request.design.counts[1]
      << ", " << request.design.counts[2] << ", " << request.design.counts[3]
      << "], \"cadence\": " << request.patch_interval_hours;
  if (transient) {
    out << ", \"wave\": {";
    const char* sep = "";
    for (const auto& [role, down] : request.wave) {
      out << sep << '"' << enterprise::to_string(role) << "\": " << down;
      sep = ", ";
    }
    out << '}';
  }
  out << '}';
  return out.str();
}

}  // namespace e2e
