// e2ebench: the repository's end-to-end benchmark.  One closed-loop client
// thread drives service::EvalService in-process with a fixed window of
// outstanding requests; latency runs from submit() until
// the reply is visible in submit order.  See README.md for the workloads,
// metrics and the traced run.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--selfcheck]
//
// The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"

namespace e2e {
namespace {

// --- measurement helpers ------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples.
double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

/// Latency samples in a fixed buffer, touched up front so that the run's
/// peak RSS does not grow with its operation count; past capacity it keeps a
/// uniform reservoir.  A run keeps 65 536 samples (655 beyond p99), an
/// interval 4096.
class LatencySamples {
 public:
  explicit LatencySamples(std::size_t capacity) : samples_(capacity, 0.0) {}
  void add(double ms) {
    ++count_;
    if (count_ <= samples_.size()) {
      samples_[count_ - 1] = ms;
    } else if (const std::size_t j = rng_.below(count_); j < samples_.size()) {
      samples_[j] = ms;
    }
  }
  void clear() noexcept { count_ = 0; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double percentile(double q) const {
    return e2e::percentile(
        {samples_.begin(), samples_.begin() + std::min(count_, samples_.size())}, q);
  }

 private:
  std::vector<double> samples_;
  std::size_t count_ = 0;
  Rng rng_{0x1A7E};
};

constexpr std::size_t kRunSamples = std::size_t{1} << 16;
constexpr std::size_t kIntervalSamples = std::size_t{1} << 12;

/// num / den as doubles, 0 when den is 0.
template <typename Num, typename Den>
double ratio(Num num, Den den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// --- options and output -------------------------------------------------------

struct Options {
  WorkloadKind kind = WorkloadKind::kSteadySweep;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool selfcheck = false;
  std::string out_dir = ".";
};

constexpr std::size_t kSetupReps = 11;     // setup_s samples taken before the run.
constexpr std::chrono::milliseconds kSetupEvery{250};  // and one per interval during it.
constexpr std::size_t kOracleSamples = 24; // replies re-solved on a solo Session per run.
constexpr std::size_t kExportCap = 10000;  // request lines written per stream export.
constexpr std::size_t kSpanExportCap = 200000;

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char*>>>;

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    out << sep << '"' << name << "\": {\"value\": " << format_number(value.first)
        << ", \"unit\": \"" << value.second << "\"}";
    sep = ", ";
  }
  out << "}}";
  return out.str();
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                  &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    brand.erase(0, brand.find_first_not_of(' '));
    return brand;
  }
#endif
  return "unknown";
}

/// The dispatched uniformization kernel, read off a tiny transient solve.
std::string dispatched_kernel() {
  const core::Session session(core::Scenario::paper_case_study());
  return session.evaluate_transient_batch(enterprise::RedundancyDesign{}, {Wave{}}, 720.0)
      .front()
      .transient_diagnostics.kernel;
}

std::string host_block(const Options& opt, std::size_t window, std::size_t workers) {
  std::ostringstream out;
  out << "{\"cpu\": \"" << cpu_model() << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"kernel\": \"" << dispatched_kernel() << "\", \"compiler\": \"" << E2EBENCH_COMPILER
      << "\", \"build_type\": \"" << E2EBENCH_BUILD_TYPE << "\", \"workload\": \""
      << workload_name(opt.kind) << "\", \"seed\": " << opt.seed << ", \"seconds\": "
      << opt.seconds << ", \"trace\": " << opt.trace << ", \"client_window\": " << window
      << ", \"service_workers\": " << workers << "}";
  return out.str();
}

std::string out_path(const Options& opt, const std::string& suffix) {
  return opt.out_dir + "/" + workload_name(opt.kind) + "-seed" + std::to_string(opt.seed) + suffix;
}

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

// --- correctness --------------------------------------------------------------

/// Payload equality, bit for bit (diagnostics and wall times may differ).
bool payload_identical(const core::EvalReport& a, const core::EvalReport& b) {
  const auto same_metrics = [](const patchsec::harm::SecurityMetrics& x,
                               const patchsec::harm::SecurityMetrics& y) {
    return same_bits(x.attack_impact, y.attack_impact) &&
           same_bits(x.attack_success_probability, y.attack_success_probability) &&
           x.attack_paths == y.attack_paths && x.entry_points == y.entry_points &&
           x.exploitable_vulnerabilities == y.exploitable_vulnerabilities;
  };
  if (!(a.design == b.design) || !same_bits(a.coa, b.coa) ||
      !same_bits(a.patch_interval_hours, b.patch_interval_hours) ||
      !same_metrics(a.before_patch, b.before_patch) ||
      !same_metrics(a.after_patch, b.after_patch) ||
      a.transient.coa.size() != b.transient.coa.size() ||
      !same_bits(a.transient.accumulated_coa_hours, b.transient.accumulated_coa_hours)) {
    return false;
  }
  for (std::size_t j = 0; j < a.transient.coa.size(); ++j) {
    if (!same_bits(a.transient.coa[j], b.transient.coa[j])) return false;
  }
  return true;
}

bool reply_sane(const service::EvalRequest& request, const service::ServiceReply& reply) {
  const core::EvalReport& r = reply.report;
  const bool transient = request.kind == service::RequestKind::kTransient;
  return r.design == request.design && r.converged() && std::isfinite(r.coa) && r.coa > 0.0 &&
         r.coa <= 1.0 && transient != r.transient.empty();
}

/// The paper's example network through the served path: COA ~ 0.99707 and
/// AIM 52.2 before / 42.2 after the critical patch.
bool golden_ok(std::string& detail) {
  service::ServiceOptions options;
  options.workers = 1;
  service::EvalService svc(core::Scenario::paper_case_study(), options);
  service::EvalRequest request;
  request.design = enterprise::example_network_design();
  request.patch_interval_hours = 720.0;
  const core::EvalReport r = svc.evaluate(request).report;
  char buf[160];
  std::snprintf(buf, sizeof buf, "golden [1,2,2,1]@720h: coa=%.12f aim %.4f -> %.4f", r.coa,
                r.before_patch.attack_impact, r.after_patch.attack_impact);
  detail = buf;
  return std::abs(r.coa - 0.99707) <= 5e-6 &&
         std::abs(r.before_patch.attack_impact - 52.2) <= 1e-9 &&
         std::abs(r.after_patch.attack_impact - 42.2) <= 1e-9;
}

/// Reservoir of up to kOracleSamples items over a stream of unknown length.
template <typename T>
class Reservoir {
 public:
  explicit Reservoir(std::uint64_t seed) : rng_(seed) {}
  template <typename Make>
  void offer(Make&& make) {
    ++seen_;
    if (items_.size() < kOracleSamples) {
      items_.push_back(make());
    } else if (const std::size_t j = rng_.below(seen_); j < kOracleSamples) {
      items_[j] = make();
    }
  }
  [[nodiscard]] const std::vector<T>& items() const noexcept { return items_; }

 private:
  Rng rng_;
  std::size_t seen_ = 0;
  std::vector<T> items_;
};

// --- the closed loop over EvalService ------------------------------------------

struct Sample {
  service::EvalRequest request;
  core::EvalReport report;
};

/// Per-interval figures of a measured loop.  A shared host's speed swings by
/// a third, in episodes from seconds to minutes; the median over a run's
/// intervals reads its typical second and leaves out the episodes that cover
/// less than half of the run.
struct Intervals {
  std::vector<double> ops_per_s;
  std::vector<double> p50_ms;
  std::vector<double> cpu_ms_per_op;
};

struct LoopStats {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  LatencySamples latency{kRunSamples};
  Intervals intervals;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  service::ServiceStats before;  // service counters when timing started
  service::ServiceStats after;
};

/// A reply of the traced phase that ran a solve.
struct Solved {
  std::uint64_t index = 0;
  service::EvalRequest request;
  double solve_s = 0.0;
};

struct Inflight {
  std::uint64_t index = 0;
  service::EvalRequest request;
  Clock::time_point submitted;
  std::future<service::ServiceReply> future;
};

constexpr std::chrono::seconds kInterval{1};

/// Serve `count` stream requests (or until `seconds` elapse) with `window`
/// outstanding; `on_reply` sees every good reply in submit order.  Every
/// kInterval of replies closes an interval; the drain after the last submit
/// closes none, unless the run closed no interval at all.
template <typename OnReply>
LoopStats closed_loop(service::EvalService& svc, ServiceWorkload& w, std::uint64_t& index,
                      double seconds, std::size_t count, std::size_t window, Tracer* tracer,
                      OnReply&& on_reply) {
  LoopStats stats;
  stats.before = svc.stats();
  std::deque<Inflight> inflight;
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  const std::uint64_t first = index;
  const std::size_t burst = std::min(w.burst, window);
  auto interval_start = start;
  double interval_cpu = cpu0;
  std::size_t interval_ops = 0;
  LatencySamples interval_latency(kIntervalSamples);
  const auto close_interval = [&](Clock::time_point now) {
    const double cpu = cpu_seconds();
    stats.intervals.ops_per_s.push_back(ratio(interval_ops, seconds_between(interval_start, now)));
    stats.intervals.p50_ms.push_back(interval_latency.percentile(0.5));
    stats.intervals.cpu_ms_per_op.push_back(ratio(1e3 * (cpu - interval_cpu), interval_ops));
    interval_start = now;
    interval_cpu = cpu;
    interval_ops = 0;
    interval_latency.clear();
  };
  const auto record = [&](Clock::time_point submitted) {
    const auto now = Clock::now();
    const double ms = 1e3 * seconds_between(submitted, now);
    stats.latency.add(ms);
    interval_latency.add(ms);
    ++interval_ops;
    if (now - interval_start >= kInterval && now < deadline) close_interval(now);
  };
  for (;;) {
    while (inflight.size() + burst <= window && index - first < count &&
           Clock::now() < deadline) {
      for (std::size_t b = 0; b < burst; ++b) {
        Inflight f{index++, w.next(), Clock::now(), {}};
        const std::uint32_t span =
            tracer ? tracer->begin("client.submit", Tracer::kNoParent, f.index) : 0;
        f.future = svc.submit(f.request);
        if (tracer) tracer->end(span);
        inflight.push_back(std::move(f));
      }
    }
    if (inflight.empty()) break;
    Inflight f = std::move(inflight.front());
    inflight.pop_front();
    ++stats.attempted;
    try {
      const service::ServiceReply reply = f.future.get();
      record(f.submitted);
      if (reply_sane(f.request, reply)) {
        on_reply(f, reply);
      } else {
        ++stats.failed;
      }
    } catch (const std::exception& e) {
      record(f.submitted);
      ++stats.failed;
      std::cerr << "request " << f.index << " failed: " << e.what() << '\n';
    }
  }
  const auto end = Clock::now();
  if (stats.intervals.ops_per_s.empty() && interval_ops > 0) close_interval(end);
  stats.wall_s = seconds_between(start, end);
  stats.cpu_s = cpu_seconds() - cpu0;
  stats.after = svc.stats();
  return stats;
}

/// A fresh service for workload `kind`, warmed with the stream's warm-up
/// prefix (untimed); `index` ends past the warm-up requests.
std::unique_ptr<service::EvalService> warmed_service(ServiceWorkload& w, std::uint64_t& index,
                                                     std::size_t window) {
  auto svc = std::make_unique<service::EvalService>(core::Scenario::paper_case_study(), w.options);
  (void)closed_loop(*svc, w, index, 1e9, w.warmup, window, nullptr,
                    [](const Inflight&, const service::ServiceReply&) {});
  return svc;
}

/// setup_s: building the scenario and constructing the service.  A single
/// batch of samples reads one moment of a shared host, whose speed for this
/// short step swings by 1.7x from one moment to the next; so it is sampled
/// kSetupReps times before the run and then every kSetupEvery on the client
/// thread during the measured loop, where it also pays the cache misses of a
/// busy process (60-200 us a sample).  setup_s is the median of all samples.
/// Worker threads are not started inside the timer: thread start-up is OS
/// work that would drown the rest.
class SetupTimer {
 public:
  explicit SetupTimer(service::ServiceOptions options) : options_(options) {
    options_.start_workers = false;
  }
  void sample() {
    const auto t0 = Clock::now();
    auto svc = std::make_unique<service::EvalService>(core::Scenario::paper_case_study(), options_);
    reps_.push_back(seconds_between(t0, Clock::now()));
  }
  [[nodiscard]] double median_s() const { return median(reps_); }

 private:
  service::ServiceOptions options_;
  std::vector<double> reps_;
};

void export_stream(const Options& opt, std::size_t consumed) {
  std::ofstream out(out_path(opt, ".jsonl"));
    ServiceWorkload w = make_service_workload(opt.kind, opt.seed);
  const std::size_t lines = std::min(consumed, kExportCap);
  for (std::size_t i = 0; i < lines; ++i) out << daemon_line(i + 1, w.next()) << '\n';
}

void export_spans(const Options& opt, const Tracer& tracer) {
  std::ofstream out(out_path(opt, ".spans.jsonl"));
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size() && i < kSpanExportCap; ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": "
        << (s.parent == Tracer::kNoParent ? std::string("null") : std::to_string(s.parent))
        << ", \"op\": " << s.op << "}\n";
  }
}

// --- per-layer metrics --------------------------------------------------------

struct LayerView {
  // service (traced phase)
  double submit_us = 0, request_key_us = 0, hit_ratio = 0, evictions = 0, coalesced_ratio = 0;
  double queue_wait_ms = 0, solve_ms = 0, batch_width_mean = 0;
  double overhead_ratio = 0;
};

Metrics layer_metrics(const LayerView& v, const Tracer& tracer, const LayerCounts& c) {
  const double keys = static_cast<double>(c.keys);
  const auto per_key = [&](std::string_view span) { return ratio(tracer.total_ms(span), keys); };
  const double evaluate = tracer.total_ms("core.evaluate");
  const double attributed = tracer.leaf_ms_under("replay");
  return {
      {"service.submit_us", {v.submit_us, "us"}},
      {"service.request_key_us", {v.request_key_us, "us"}},
      {"service.hit_ratio", {v.hit_ratio, "ratio"}},
      {"service.evictions", {v.evictions, "count"}},
      {"service.coalesced_ratio", {v.coalesced_ratio, "ratio"}},
      {"service.queue_wait_ms", {v.queue_wait_ms, "ms"}},
      {"service.solve_ms", {v.solve_ms, "ms"}},
      {"service.batch_width_mean", {v.batch_width_mean, "count"}},
      {"core.evaluate_ms", {ratio(evaluate, keys), "ms"}},
      {"core.unattributed_ms", {ratio(evaluate - attributed, keys), "ms"}},
      {"avail.aggregation_ms", {per_key("avail.aggregation"), "ms"}},
      {"avail.network_build_ms", {per_key("avail.network_build"), "ms"}},
      {"avail.transient_batch_ms", {per_key("avail.transient_batch"), "ms"}},
      {"avail.reward_ms", {per_key("avail.reward"), "ms"}},
      {"petri.verify_ms", {per_key("petri.verify"), "ms"}},
      {"petri.reachability_ms", {per_key("petri.reachability"), "ms"}},
      {"petri.tangible_states", {ratio(c.tangible_states, keys), "count"}},
      {"ctmc.generator_ms", {per_key("ctmc.generator"), "ms"}},
      {"ctmc.uniformization_ms", {per_key("ctmc.uniformization"), "ms"}},
      {"ctmc.matvecs", {ratio(c.matvecs, c.panels), "count"}},
      {"ctmc.rhs_width", {ratio(c.rhs, c.panels), "count"}},
      {"linalg.steady_solve_ms", {per_key("linalg.steady_solve"), "ms"}},
      {"linalg.steady_iterations", {ratio(c.steady_iterations, keys), "count"}},
      {"linalg.spmv_bytes_computed", {ratio(c.spmv_bytes, c.panels), "bytes"}},
      {"harm.build_ms", {per_key("harm.build"), "ms"}},
      {"harm.evaluate_ms", {per_key("harm.evaluate"), "ms"}},
      {"harm.attack_paths", {ratio(c.attack_paths, c.new_designs), "count"}},
      {"harm.truncated_paths", {static_cast<double>(c.truncated_paths), "count"}},
      {"trace.attributed_share", {ratio(attributed, evaluate), "ratio"}},
      {"trace.overhead_ratio", {v.overhead_ratio, "ratio"}},
      {"trace.replay_mismatches", {static_cast<double>(c.mismatches), "count"}},
  };
}

/// Throughput, p50 and CPU per operation are medians over the run's
/// intervals; p99 is over the whole run, whose tail one interval is too short
/// to hold.
Metrics end_to_end_metrics(const LoopStats& run, double setup_s, double rss_mb) {
  return {
      {"ops_per_s", {median(run.intervals.ops_per_s), "1/s"}},
      {"latency_p50_ms", {median(run.intervals.p50_ms), "ms"}},
      {"latency_p99_ms", {run.latency.percentile(0.99), "ms"}},
      {"cpu_ms_per_op", {median(run.intervals.cpu_ms_per_op), "ms"}},
      {"setup_s", {setup_s, "s"}},
      {"peak_rss_mb", {rss_mb, "MB"}},
      {"ok_ratio", {1.0 - ratio(run.failed, run.attempted), "ratio"}},
  };
}

void print_metrics(const Metrics& metrics) {
  for (const auto& [name, value] : metrics) {
    std::printf("  %-28s %-22s %s\n", name.c_str(), format_number(value.first).c_str(),
                value.second);
  }
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
};

// --- service workloads --------------------------------------------------------

/// Re-solve the sampled replies on a solo Session; returns the mismatches.
std::size_t oracle_mismatches(const std::vector<Sample>& samples) {
  const core::Session solo(core::Scenario::paper_case_study());
  std::size_t bad = 0;
  for (const Sample& s : samples) {
    const core::EvalReport fresh =
        s.request.kind == service::RequestKind::kTransient
            ? solo.evaluate_transient_batch(s.request.design, {s.request.wave},
                                            s.request.patch_interval_hours)
                  .front()
            : solo.evaluate(s.request.design, s.request.patch_interval_hours);
    if (!payload_identical(fresh, s.report)) ++bad;
  }
  std::printf("check: %zu/%zu sampled replies bit-identical to a solo Session solve\n",
              samples.size() - bad, samples.size());
  return bad;
}

Outcome run_service(const Options& opt, SetupTimer& setup, std::size_t& consumed) {
  ServiceWorkload w = make_service_workload(opt.kind, opt.seed);
  const double measure_s = opt.trace ? opt.seconds / 2 : opt.seconds;

  // Untimed warm-up, then the measured closed loop.
  std::uint64_t index = 0;
  auto svc = warmed_service(w, index, w.window);
  Reservoir<Sample> samples(opt.seed ^ 0x5A5A5A5Aull);
  auto next_setup = Clock::now() + kSetupEvery;
  const LoopStats run = closed_loop(
      *svc, w, index, measure_s, SIZE_MAX, w.window, nullptr,
      [&](const Inflight& f, const service::ServiceReply& reply) {
        samples.offer([&] { return Sample{f.request, reply.report}; });
        if (Clock::now() >= next_setup) {
          setup.sample();
          next_setup += kSetupEvery;
        }
      });
  const double rss = peak_rss_mb();
  svc.reset();
  consumed = index;

  Outcome out;
  out.attempted = run.attempted;
  out.failed = run.failed + oracle_mismatches(samples.items());
  if (run.latency.count() < 1000) {
    std::printf("note: %zu samples leave fewer than 10 beyond p99\n", run.latency.count());
  }
  out.metrics = end_to_end_metrics(run, setup.median_s(), rss);
  if (!opt.trace) return out;

  // Traced phase: the same stream on a fresh service with client spans, then
  // the layer-by-layer replay of the keys it solved.
  ServiceWorkload tw = make_service_workload(opt.kind, opt.seed);
  std::uint64_t tindex = 0;
  auto tsvc = warmed_service(tw, tindex, tw.window);
  const std::uint64_t timed_from = tindex;
  Tracer tracer;
  std::vector<Solved> solved;
  double queue_wait = 0.0;
  std::size_t queued = 0;
  const LoopStats traced = closed_loop(
      *tsvc, tw, tindex, measure_s, SIZE_MAX, tw.window, &tracer,
      [&](const Inflight& f, const service::ServiceReply& reply) {
        if (reply.source != service::ReplySource::kCache) {
          queue_wait += reply.queue_wait_seconds;
          ++queued;
        }
        if (reply.source == service::ReplySource::kSolve) {
          solved.push_back(Solved{f.index, f.request, reply.solve_seconds});
        }
      });
  const std::uint64_t scenario_hash = tsvc->scenario_hash();
  tsvc.reset();
  out.attempted += traced.attempted;
  out.failed += traced.failed;

  LayerView v;
  v.submit_us = 1e3 * ratio(tracer.total_ms("client.submit"), traced.attempted);
  const service::CacheStats& c0 = traced.before.cache;
  const service::CacheStats& c1 = traced.after.cache;
  v.hit_ratio = ratio(c1.hits - c0.hits, c1.hits - c0.hits + c1.misses - c0.misses);
  v.evictions = static_cast<double>(c1.evictions - c0.evictions);
  v.coalesced_ratio = ratio(traced.after.coalesced - traced.before.coalesced,
                            traced.after.submitted - traced.before.submitted);
  v.queue_wait_ms = 1e3 * ratio(queue_wait, queued);
  double solve_s = 0.0;
  for (const Solved& r : solved) solve_s += r.solve_s;
  v.solve_ms = 1e3 * ratio(solve_s, solved.size());
  v.batch_width_mean = ratio(traced.after.solved_jobs - traced.before.solved_jobs,
                             traced.after.solves - traced.before.solves);
  v.overhead_ratio =
      1.0 - ratio(ratio(traced.attempted, traced.wall_s), ratio(run.attempted, run.wall_s));

  // request_key over the traced phase's requests (regenerated from the seed).
  {
    ServiceWorkload kw = make_service_workload(opt.kind, opt.seed);
    for (std::uint64_t i = 0; i < timed_from; ++i) (void)kw.next();
    const std::size_t n = std::min<std::size_t>(tindex - timed_from, 20000);
    std::vector<service::EvalRequest> requests;
    for (std::size_t i = 0; i < n; ++i) requests.push_back(kw.next());
    for (std::size_t i = 0; i < n; ++i) {
      (void)tracer.span("service.request_key", Tracer::kNoParent, timed_from + i,
                        [&] { return service::request_key(scenario_hash, requests[i]); });
    }
    v.request_key_us = 1e3 * ratio(tracer.total_ms("service.request_key"), n);
  }

  // Replay: solved transient keys regroup into panels the way the service
  // groups a queued burst (same structure, submit order, up to max_batch).
  Replayer replayer(core::Scenario::paper_case_study(), tracer);
  const auto budget_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(measure_s));
  std::size_t i = 0;
  while (i < solved.size() && Clock::now() < budget_end) {
    const service::EvalRequest& r = solved[i].request;
    if (r.kind == service::RequestKind::kSteady) {
      replayer.steady(solved[i].index, r.design, r.patch_interval_hours);
      ++i;
      continue;
    }
    std::vector<Wave> waves{r.wave};
    std::size_t j = i + 1;
    while (j < solved.size() && waves.size() < tw.options.max_batch &&
           solved[j].request.kind == service::RequestKind::kTransient &&
           solved[j].request.design == r.design &&
           same_bits(solved[j].request.patch_interval_hours, r.patch_interval_hours)) {
      waves.push_back(solved[j++].request.wave);
    }
    replayer.transient(solved[i].index, r.design, waves, r.patch_interval_hours);
    i = j;
  }
  std::printf("trace: replayed %zu of %zu solved keys (%zu solves)\n", i, solved.size(),
              replayer.counts().keys);
  out.failed += replayer.counts().mismatches;
  out.metrics = layer_metrics(v, tracer, replayer.counts());
  export_spans(opt, tracer);
  return out;
}

// --- determinism self-check ------------------------------------------------------

struct CheckCounts {
  std::uint64_t stream_digest = 14695981039346656037ull;
  std::size_t solves = 0;
  LayerCounts layers;
  bool operator==(const CheckCounts& o) const {
    return stream_digest == o.stream_digest && solves == o.solves &&
           layers.matvecs == o.layers.matvecs &&
           layers.steady_iterations == o.layers.steady_iterations &&
           layers.tangible_states == o.layers.tangible_states &&
           layers.attack_paths == o.layers.attack_paths;
  }
};

/// A count-bounded, one-request-at-a-time pass over the warm-up and the first
/// requests after it (no timing, no concurrency): the stream digest plus the
/// work counts of every solved key.
CheckCounts counted_pass(const Options& opt) {
  CheckCounts out;
  Tracer tracer;
  const std::size_t count = opt.kind == WorkloadKind::kTransientWaves ? 48
                            : opt.kind == WorkloadKind::kHotMixed     ? 3000
                                                                      : 300;
  ServiceWorkload w = make_service_workload(opt.kind, opt.seed);
  service::EvalService svc(core::Scenario::paper_case_study(), w.options);
  std::uint64_t index = 0;
  Replayer replayer(core::Scenario::paper_case_study(), tracer);
  (void)closed_loop(svc, w, index, 1e9, w.warmup + count, 1, nullptr,
                    [&](const Inflight& f, const service::ServiceReply& reply) {
                      out.stream_digest = fnv1a(out.stream_digest, daemon_line(f.index, f.request));
                      if (reply.source != service::ReplySource::kSolve) return;
                      if (f.request.kind == service::RequestKind::kTransient) {
                        replayer.transient(f.index, f.request.design, {f.request.wave},
                                           f.request.patch_interval_hours);
                      } else {
                        replayer.steady(f.index, f.request.design, f.request.patch_interval_hours);
                      }
                    });
  out.solves = svc.stats().solves;
  out.layers = replayer.counts();
  return out;
}

int selfcheck(const Options& opt) {
  const CheckCounts a = counted_pass(opt);
  const CheckCounts b = counted_pass(opt);
  for (const CheckCounts* c : {&a, &b}) {
    std::printf("selfcheck %s seed=%llu: stream=0x%016llx solves=%zu ctmc.matvecs=%zu "
                "linalg.steady_iterations=%zu petri.tangible_states=%zu harm.attack_paths=%zu\n",
                workload_name(opt.kind), static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(c->stream_digest), c->solves, c->layers.matvecs,
                c->layers.steady_iterations, c->layers.tangible_states, c->layers.attack_paths);
  }
  const bool ok = a == b;
  std::printf("selfcheck %s: %s\n", workload_name(opt.kind), ok ? "identical" : "MISMATCH");
  return ok ? 0 : 1;
}

// --- entry point --------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) throw std::invalid_argument(std::string(arg) + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::optional<WorkloadKind> kind = parse_workload(value());
      if (!kind) throw std::invalid_argument("unknown workload");
      opt.kind = *kind;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(std::string(value()));
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(std::string(value()));
      if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (arg == "--trace") {
      const std::string_view trace = value();
      if (trace != "0" && trace != "1") throw std::invalid_argument("--trace must be 0 or 1");
      opt.trace = trace == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = std::string(value());
    } else if (arg == "--selfcheck") {
      opt.selfcheck = true;
    } else {
      throw std::invalid_argument("unknown argument " + std::string(arg));
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return opt;
}

int run(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::filesystem::create_directories(opt.out_dir);
  if (opt.selfcheck) return selfcheck(opt);

  const ServiceWorkload shape = make_service_workload(opt.kind, opt.seed);
  SetupTimer setup(shape.options);
  for (std::size_t i = 0; i < kSetupReps; ++i) setup.sample();
  const std::string host = host_block(opt, shape.window, shape.options.workers);
  std::printf("e2ebench %s\nhost %s\n", workload_name(opt.kind), host.c_str());

  std::size_t consumed = 0;
  Outcome out = run_service(opt, setup, consumed);
  std::string detail;
  ++out.attempted;
  if (!golden_ok(detail)) ++out.failed;
  std::printf("check: %s\n", detail.c_str());
  export_stream(opt, consumed);
  std::printf("stream: %zu requests, first %zu exported to %s\n", consumed,
              std::min(consumed, kExportCap), out_path(opt, ".jsonl").c_str());

  const bool correct = out.failed == 0;
  std::printf("%s metrics (%s):\n", opt.trace ? "per-layer" : "end-to-end",
              correct ? "all replies correct" : "WRONG OR FAILED REPLIES");
  print_metrics(out.metrics);
  const std::string result = result_line(correct, out.attempted, out.failed, out.metrics);
  std::ofstream(out_path(opt, opt.trace ? ".trace.json" : ".result.json"))
      << "{\"host\": " << host << ", \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
