// xgbench_driver: one benchmark workload per process.
//
//   xgbench_driver --workload fabric_day|serve_herd|cfd_job --seed N
//                  --seconds S --trace 0|1
//
// Workloads (see README.md for why each was chosen and what it bypasses):
//
//   fabric_day  independent seeded 24 h chaos days of the coupled fabric
//               (fronts, breach, UNL partition, HPC queue stall), serve
//               tier on with no requesters, CFD modeled.
//   serve_herd  the same days with 300 open-loop requesters polling the
//               advisory server every 60 s (Poisson, 30-min deadlines).
//   cfd_job     the CFD call sequence Fabric::ExecuteCfd makes (case ->
//               mesh -> solver -> probes) on the fabric's 48x40x12 mesh,
//               each job run serially and on a 2-worker ThreadPool.
//
// One "item" is a simulated day (fabric workloads) or one job run once
// serially and once pooled (cfd_job). The driver runs items back to back
// for --seconds of host time. Interleaved with them, it runs the set-up
// (inputs, first construction, pool spawn, one warm-up item) many times,
// each in a fresh process of its own binary, so every repeat is a cold
// start. Every item is checked; a failed check counts as a failed
// operation. Virtual-clock numbers are aggregated over a fixed set of
// distinct days, so they are identical for a given seed whatever the host
// speed, and every repeated day must reproduce its first run exactly.
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the traced run:
// it records the driver's own spans around each call into a layer, reads
// each layer's counters by their exported xg_* names from
// MetricsRegistry::Snapshot(), runs paired passes (observability off; no
// requesters) for the per-layer costs, and prints the per-layer metrics.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cfd/case.hpp"
#include "cfd/mesh.hpp"
#include "cfd/solver.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "core/fabric.hpp"
#include "cspot/topology.hpp"
#include "fault/plan.hpp"
#include "obs/export.hpp"
#include "obs/kerneltimer.hpp"
#include "obs/metrics.hpp"
#include "obs/slo/hdr.hpp"
#include "obs/trace.hpp"
#include "serve/loadgen.hpp"

extern char** environ;

namespace {

using namespace xg;
using HostClock = std::chrono::steady_clock;

// ---------------------------------------------------------------- basics

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now().time_since_epoch())
      .count();
}

/// SplitMix64 step: derives independent per-item seeds from the run seed.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// FNV-1a accumulator for the per-item determinism digests.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ull;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
  template <typename T>
  void Pod(T v) {
    Bytes(&v, sizeof(v));
  }
  void Doubles(const std::vector<double>& v) {
    Bytes(v.data(), v.size() * sizeof(double));
  }
};

/// Linear-interpolated quantile of a sample (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process (VmHWM). Unlike getrusage's
/// ru_maxrss, VmHWM starts afresh at exec, so the launcher's own memory
/// does not leak into the workload's number.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Bucketed distribution merged across items: each bucket keeps its own
/// lower and upper edge, and percentiles interpolate between them, like
/// LatencyHistogram::ApproxPercentile.
class Distribution {
 public:
  /// A registry histogram: fixed bounds, every bucket listed.
  void Merge(const obs::HistogramSnapshot& s) {
    for (size_t i = 0; i < s.counts.size(); ++i) {
      const double upper = i < s.bounds.size()
                               ? s.bounds[i]
                               : std::numeric_limits<double>::infinity();
      Add(i == 0 ? 0.0 : s.bounds[i - 1], upper, s.counts[i]);
    }
  }
  /// A sparse HdrHistogram snapshot (ms upper edges of the non-empty
  /// buckets only): a bucket's lower edge is the previous HDR bucket's
  /// upper edge, not the previous listed one.
  void MergeHdr(const obs::HistogramSnapshot& s) {
    using obs::slo::HdrHistogram;
    for (size_t i = 0; i < s.bounds.size(); ++i) {
      const size_t b =
          HdrHistogram::BucketIndex(std::llround(s.bounds[i] * 1e3));
      const int64_t lower_us = b == 0 ? 0 : HdrHistogram::BucketUpperUs(b - 1);
      Add(static_cast<double>(lower_us) / 1e3, s.bounds[i], s.counts[i]);
    }
  }
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double target = p / 100.0 * static_cast<double>(count_);
    uint64_t cum = 0;
    double last = 0.0;
    for (const auto& [upper, bucket] : buckets_) {
      const auto& [lower, c] = bucket;
      if (c == 0) continue;
      if (static_cast<double>(cum + c) >= target) {
        if (std::isinf(upper)) return lower;
        const double frac = (target - static_cast<double>(cum)) /
                            static_cast<double>(c);
        return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
      }
      cum += c;
      last = upper;
    }
    return last;
  }

 private:
  void Add(double lower, double upper, uint64_t count) {
    auto& bucket = buckets_.try_emplace(upper, lower, 0).first->second;
    bucket.second += count;
    count_ += count;
  }
  /// upper edge -> (lower edge, count)
  std::map<double, std::pair<double, uint64_t>> buckets_;
  uint64_t count_ = 0;
};

// ------------------------------------------------------- metrics output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

/// Tally of checks; each failed item (setup, day or job) counts once.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::set<std::string> reasons;

  /// Record one operation's outcome; `errors` empty means it passed.
  void Item(const std::vector<std::string>& errors) {
    ++attempted;
    if (errors.empty()) return;
    ++failed;
    for (const std::string& e : errors) {
      if (reasons.insert(e).second) {
        std::fprintf(stderr, "xgbench: check failed: %s\n", e.c_str());
      }
    }
  }
};

// ------------------------------------------------ the driver's own spans

// The driver's spans go to an obs::Tracer of the driver's own, on the host
// clock; the fabric's tracer stays on the virtual clock. It is disabled
// outside the traced run, and the untraced repeats inside that run get
// nullptr.

/// The host clock in microseconds, for the driver's Tracer and KernelTimers.
int64_t HostUs() { return HostNs() / 1000; }

/// Durations (ms) of every recorded span with this name.
std::vector<double> SpanMs(const obs::Tracer& tracer,
                           const std::string& name) {
  std::vector<double> out;
  for (const obs::SpanRecord& s : tracer.Snapshot()) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.duration_us()) / 1e3);
    }
  }
  return out;
}

/// Program log records go to this counting sink instead of stderr, so no
/// terminal I/O happens inside a timed window.
struct LogCounter {
  std::atomic<uint64_t> warn{0};
};

// ------------------------------------------------- registry by xg_* name

/// Values read from MetricsRegistry::Snapshot() by exported name. Scalar
/// lookups sum over every label set of the name.
class RegistryView {
 public:
  explicit RegistryView(const std::vector<obs::MetricSample>& samples) {
    for (const obs::MetricSample& s : samples) {
      if (s.type == obs::MetricSample::Type::kHistogram) {
        hists_[Key(s)] = s.hist;
      } else {
        scalars_[s.name] += s.value;
        labeled_[Key(s)] = s.value;
      }
    }
  }
  static std::string Key(const obs::MetricSample& s) {
    std::string k = s.name;
    for (const auto& [lk, lv] : s.labels) k += "|" + lk + "=" + lv;
    return k;
  }
  double Sum(const std::string& name) const {
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second;
  }
  double Labeled(const std::string& key) const {
    auto it = labeled_.find(key);
    return it == labeled_.end() ? 0.0 : it->second;
  }
  const obs::HistogramSnapshot* Hist(const std::string& key) const {
    auto it = hists_.find(key);
    return it == hists_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, double> scalars_;
  std::map<std::string, double> labeled_;
  std::map<std::string, obs::HistogramSnapshot> hists_;
};

// ====================================================== fabric workloads

constexpr double kDayHours = 24.0;
/// Host-time parts of a day: construction plus one per simulated hour.
constexpr size_t kDayParts = 1 + static_cast<size_t>(kDayHours);
constexpr double kRequesters = 300.0;
constexpr double kPollPeriodS = 60.0;
constexpr int64_t kRequestDeadlineUs = 30ll * 60 * 1'000'000;
/// Requests stop this long before the day ends, so every request made
/// inside the day (deadline 30 min) has been answered by its end.
constexpr double kLoadTailS = 3600.0;
/// Ledger stages with an interval (sensor_emit opens the budget).
const char* const kStages[] = {"rrc_grant",       "cell_egress",
                               "wan_hop",         "cspot_append",
                               "replication_ack", "laminar_trigger",
                               "pilot_submit",    "cfd_start",
                               "cfd_end",         "twin_update"};

struct DayMode {
  bool obs = true;   ///< metrics, tracing and SLO ledger on
  bool load = false; ///< open-loop requesters attached
};

/// Scalar counters the traced run reports, summed over the virtual set.
struct CounterSpec {
  const char* metric;
  const char* xg_name;
};
const CounterSpec kCounters[] = {
    {"cspot.append_attempts", "xg_cspot_append_attempts_total"},
    {"cspot.timeouts", "xg_cspot_timeouts_total"},
    {"cspot.dedup_hits", "xg_cspot_dedup_hits_total"},
    {"wan.sent", "xg_cspot_wan_messages_sent_total"},
    {"wan.lost", "xg_cspot_wan_messages_lost_total"},
    {"laminar.cycles", "xg_fabric_detection_cycles_total"},
    {"laminar.alerts", "xg_fabric_alerts_raised_total"},
    {"pilot.tasks_completed", "xg_pilot_tasks_completed_total"},
    {"pilot.tasks_rejected", "xg_pilot_tasks_rejected_total"},
    {"pilot.idle_node_s", "xg_pilot_idle_node_seconds_total"},
    {"pilot.serve_runs", "xg_fabric_serve_cfd_runs_total"},
    {"pilot.serve_rejected", "xg_fabric_serve_cfd_rejected_total"},
    {"hpc.jobs_started", "xg_hpc_jobs_started_total"},
    {"resil.sf_buffered", "xg_resil_sf_buffered_total"},
    {"resil.sf_drained", "xg_resil_sf_drained_total"},
    {"resil.breaker_transitions", "xg_resil_breaker_transitions_total"},
    {"fault.injected", "xg_fault_injected_total"},
    {"serve.requests", "xg_serve_requests_total"},
    {"serve.coalesced", "xg_serve_coalesced_total"},
    {"serve.late", "xg_serve_late_responses_total"},
    {"serve.storms", "xg_serve_overload_storms_total"},
    {"serve.cfd_launches", "xg_serve_cfd_launched_total"},
};

/// Per-status response ratios: metric name -> xg_serve_responses_total
/// status label.
const std::pair<const char*, const char*> kResponseRatios[] = {
    {"serve.fresh_ratio", "served_fresh"},
    {"serve.stale_ratio", "served_stale"},
    {"serve.stale_shed_ratio", "served_stale_shed"},
    {"serve.shed_ratio", "shed"},
    {"serve.failed_ratio", "failed"},
};

/// What one simulated day produced, read back through public APIs only.
struct DayResult {
  double wall_ms = 0.0;  ///< host time: construction + Run(24 h)
  /// The same interval in parts: construction, then each simulated hour.
  std::vector<double> part_ms;
  uint64_t events = 0;
  uint64_t spans = 0;
  uint64_t instruments = 0;
  uint64_t warn_records = 0;
  uint64_t requests = 0;  ///< advisory requests answered
  uint64_t frames_stored = 0;
  uint64_t digest = 0;  ///< virtual-clock fingerprint of the whole day
  std::map<std::string, double> counters;
  /// Registry histograms: "telemetry" (fixed bounds) and the SLO stages
  /// (sparse HDR snapshots).
  obs::HistogramSnapshot telemetry_hist;
  std::map<std::string, obs::HistogramSnapshot> stage_hists;
  std::vector<double> alert_to_result_s;
  /// Client-side view of the requesters (zero without a load).
  uint64_t submitted = 0, completed = 0, goodput = 0;
  obs::HistogramSnapshot served_latency;
  std::vector<std::string> errors;
};

/// The xgtop --snapshot --chaos scenario: morning and evening fronts, a
/// 13:00 screen breach, a 10-min UNL access partition at 09:00 and a
/// 20-min HPC queue stall at 13:30; resilience and the serve tier on.
core::FabricConfig ChaosDayConfig(uint64_t day_seed, bool obs_on) {
  core::FabricConfig cfg;
  cfg.seed = day_seed;
  cfg.resilience.enabled = true;
  cfg.serve.enabled = true;
  cfg.cfd_mode = core::CfdMode::kModeled;
  cfg.metrics_enabled = obs_on;
  cfg.tracing_enabled = obs_on;
  cfg.slo.enabled = obs_on;
  cfg.fault_plan = fault::FaultPlan(day_seed);
  cfg.fault_plan.Partition("unl", "unl-gw", 9.0 * 3600, 600.0);
  cfg.fault_plan.QueueStall(cfg.site.name, 13.5 * 3600, 1200.0);
  return cfg;
}

void ScheduleScenario(core::Fabric& fabric) {
  sensors::FrontEvent morning;
  morning.start_s = 8.0 * 3600;
  morning.ramp_s = 1800.0;
  morning.d_wind_ms = 2.0;
  morning.d_temp_c = 1.5;
  fabric.ScheduleFront(morning);
  sensors::FrontEvent evening;
  evening.start_s = 18.0 * 3600;
  evening.ramp_s = 2400.0;
  evening.d_wind_ms = -1.5;
  evening.d_temp_c = -3.0;
  fabric.ScheduleFront(evening);
  sensors::BreachEvent breach;
  breach.time_s = 13.0 * 3600;
  breach.x_m = 30.0;
  breach.y_m = 90.0;
  breach.radius_m = 25.0;
  fabric.ScheduleBreach(breach);
}

serve::LoadGenConfig HerdConfig(uint64_t day_seed) {
  serve::LoadGenConfig lg;
  lg.seed = day_seed ^ 0x5E4Dull;
  lg.requesters = kRequesters;
  lg.request_period_s = kPollPeriodS;
  lg.start_s = 0.0;
  lg.duration_s = kDayHours * 3600.0 - kLoadTailS;
  lg.deadline_us = kRequestDeadlineUs;
  return lg;
}

/// Upper bound on successful serve CFD launches: one per key per validity
/// window. The arrivals come from replaying the generator's own arrival
/// process and condition draws (same seed, same call order), and the keys
/// from quantizing them with the server's quantizer.
///
/// A key launches only on a cache miss with no flight in the air. Its next
/// successful launch therefore looks the key up more than `validity` after
/// the previous result completed, hence more than `validity` after the
/// previous launch's lookup. A lookup trails its arrival by at most the
/// admission queue's sojourn S, so the arrivals that trigger successive
/// launches of a key are more than validity - S apart. Greedily counting,
/// per key, each arrival more than validity - S after the last counted one
/// gives the longest such chain. A failed flight frees its key at once, so
/// the caller adds xg_serve_cfd_failed_total on top.
uint64_t LaunchBound(const serve::LoadGenerator& gen,
                     const serve::LoadGenConfig& lg,
                     const serve::AdvisoryServer& server,
                     uint64_t* replayed) {
  const serve::ServeConfig& cfg = server.config();
  const int64_t max_sojourn_us =
      static_cast<int64_t>(cfg.admission.queue_capacity + 1) *
      cfg.admission.service_us;
  const int64_t gap_us = cfg.cache.validity_us - max_sojourn_us;
  Rng rng(lg.seed);
  const double rate = lg.requesters / lg.request_period_s;
  const int64_t end_us =
      sim::SimTime::Seconds(lg.start_s + lg.duration_s).micros();
  int64_t now_us = sim::SimTime::Seconds(lg.start_s).micros();
  std::map<serve::ConditionKey, int64_t> last_counted_us;
  uint64_t bound = 0;
  uint64_t n = 0;
  for (;;) {
    const serve::ConditionKey key = server.quantizer().KeyFor(
        gen.DrawConditions(sim::SimTime::Micros(now_us).seconds(), rng));
    auto [it, fresh] = last_counted_us.try_emplace(key, now_us);
    if (fresh || now_us - it->second > gap_us) {
      it->second = now_us;
      ++bound;
    }
    if (lg.deadline_us > 0) (void)rng.Bernoulli(lg.deadline_fraction);
    ++n;
    const double gap_s = rng.Exponential(1.0 / rate);
    now_us += std::max<int64_t>(1, std::llround(gap_s * 1e6));
    if (now_us > end_us) break;
  }
  *replayed = n;
  return bound;
}

/// Exactly-once storage of telemetry at UCSB: the log holds a dense run of
/// sequence numbers, no payload twice, and exactly the stored count.
void CheckTelemetryLog(core::Fabric& fabric, uint64_t stored, uint64_t sent,
                       std::vector<std::string>& errors) {
  if (stored > sent) errors.push_back("telemetry stored > sent");
  cspot::Node* ucsb =
      fabric.cspot_runtime().GetNode(cspot::TopologyNames{}.ucsb);
  cspot::LogStorage* log =
      ucsb == nullptr ? nullptr : ucsb->GetLog("telemetry");
  if (log == nullptr) {
    errors.push_back("telemetry log missing at ucsb");
    return;
  }
  std::set<std::vector<uint8_t>> seen;
  uint64_t entries = 0;
  for (cspot::SeqNo s = log->Earliest();
       log->Size() > 0 && s <= log->Latest(); ++s) {
    auto got = log->Get(s);
    if (!got.ok()) {
      errors.push_back("telemetry log has a gap in its sequence");
      return;
    }
    if (!seen.insert(got.take()).second) {
      errors.push_back("telemetry frame stored twice");
    }
    ++entries;
  }
  if (entries != stored) {
    errors.push_back("telemetry log entries != frames stored");
  }
}

DayResult RunDay(uint64_t day_seed, DayMode mode, obs::Tracer* spans,
                 const LogCounter& logs) {
  DayResult out;
  const uint64_t warn_before = logs.warn.load();
  const obs::TraceContext root = obs::StartTraceIf(spans, "day", "bench");
  const int64_t t0 = HostNs();

  const obs::TraceContext construct =
      obs::StartSpanIf(spans, "fabric.construct", "core", root);
  core::Fabric fabric(ChaosDayConfig(day_seed, mode.obs));
  ScheduleScenario(fabric);
  fabric.on_result = [&out](const core::CfdResult& r) {
    out.alert_to_result_s.push_back(r.complete_time_s - r.trigger_time_s);
  };
  std::unique_ptr<serve::LoadGenerator> gen;
  serve::LoadGenConfig lg;
  if (mode.load) {
    lg = HerdConfig(day_seed);
    gen = std::make_unique<serve::LoadGenerator>(
        fabric.simulation(), *fabric.advisory_server(), lg);
    gen->Start();
  }
  obs::EndSpanIf(spans, construct);
  // Host-clock marks at every simulated hour boundary split the day into
  // parts; the marks only read the clock, so the fabric runs unchanged.
  std::vector<int64_t> marks = {t0, HostNs()};
  sim::Periodic(fabric.simulation(), sim::SimTime::Hours(1),
                sim::SimTime::Hours(1), [&marks] {
                  marks.push_back(HostNs());
                  return marks.size() < kDayParts;
                });

  const obs::TraceContext run =
      obs::StartSpanIf(spans, "fabric.run", "sim", root);
  fabric.Run(kDayHours);
  obs::EndSpanIf(spans, run);
  marks.push_back(HostNs());
  out.wall_ms = (marks.back() - t0) / 1e6;
  for (size_t i = 1; i < marks.size(); ++i) {
    out.part_ms.push_back((marks[i] - marks[i - 1]) / 1e6);
  }
  if (out.part_ms.size() != kDayParts) {
    out.errors.push_back("day did not reach every hour mark");
  }

  // ---- read back (outside the timed interval)
  const obs::TraceContext read =
      obs::StartSpanIf(spans, "registry.snapshot", "obs", root);
  const std::vector<obs::MetricSample> samples = fabric.registry().Snapshot();
  obs::EndSpanIf(spans, read);
  const RegistryView view(samples);
  // Sim events of the fabric: the hour marks are the driver's own.
  out.events = fabric.simulation().executed() - (marks.size() - 3);
  out.spans = fabric.tracer().span_count();
  out.instruments = fabric.registry().instrument_count();
  out.warn_records = logs.warn.load() - warn_before;
  if (gen != nullptr) {
    const serve::LoadStats& ls = gen->stats();
    out.submitted = ls.submitted;
    out.completed = ls.completed;
    out.goodput = ls.goodput;
    out.served_latency = ls.served_latency.Snapshot();
  }
  out.requests = out.completed;

  const obs::TraceContext check =
      obs::StartSpanIf(spans, "check", "bench", root);
  std::vector<std::string>& errors = out.errors;
  if (out.alert_to_result_s.empty()) errors.push_back("no CFD result landed");
  if (mode.obs) {
    for (const CounterSpec& c : kCounters) {
      out.counters[c.metric] = view.Sum(c.xg_name);
    }
    const uint64_t sent = static_cast<uint64_t>(
        view.Sum("xg_fabric_telemetry_frames_sent_total"));
    out.frames_stored = static_cast<uint64_t>(
        view.Sum("xg_fabric_telemetry_frames_stored_total"));
    out.counters["telemetry.sent"] = static_cast<double>(sent);
    out.counters["telemetry.stored"] = static_cast<double>(out.frames_stored);
    CheckTelemetryLog(fabric, out.frames_stored, sent, errors);
    for (const auto& [metric, status] : kResponseRatios) {
      out.counters[std::string("serve.") + status] = view.Labeled(
          std::string("xg_serve_responses_total|status=") + status);
    }
    out.counters["serve.hits"] = view.Sum("xg_serve_cache_hits_fresh_total") +
                                 view.Sum("xg_serve_cache_hits_stale_total");
    out.counters["serve.overload_transitions"] =
        view.Labeled("xg_resil_mode_transitions_total|mode=overload_shed");
    if (const auto* h = view.Hist("xg_fabric_telemetry_latency_ms")) {
      out.telemetry_hist = *h;
    }
    for (const char* stage : kStages) {
      if (const auto* h = view.Hist(
              std::string("xg_slo_stage_latency_ms|stage=") + stage)) {
        out.stage_hists[stage] = *h;
      }
    }
    // Every ledger record closes and reaches the SLO tracker. Open at the
    // day's end may be only the detection window's head frame and the one
    // journey the fabric allows in the CFD path.
    obs::slo::LatencyLedger* ledger = fabric.slo_ledger();
    const double tracked = view.Sum("xg_slo_completed_total") +
                           view.Sum("xg_slo_incomplete_total");
    if (ledger == nullptr ||
        ledger->opened_total() !=
            ledger->closed_total() + ledger->in_flight() ||
        ledger->in_flight() > 2 ||
        tracked != static_cast<double>(ledger->closed_total())) {
      errors.push_back("SLO ledger left records open");
    }
  }
  if (gen != nullptr) {
    // Exactly one response per request, as the requesters and the server's
    // exported counters see it.
    if (out.submitted == 0) errors.push_back("no advisory request submitted");
    if (out.completed != out.submitted) {
      errors.push_back("advisory responses != requests submitted");
    }
    uint64_t replayed = 0;
    const uint64_t bound =
        LaunchBound(*gen, lg, *fabric.advisory_server(), &replayed);
    if (replayed != out.submitted) {
      errors.push_back("arrival replay disagrees with the generator");
    }
    if (mode.obs) {
      const double submitted = static_cast<double>(out.submitted);
      if (view.Sum("xg_serve_requests_total") != submitted ||
          view.Sum("xg_serve_responses_total") != submitted) {
        errors.push_back("server responses != requests submitted");
      }
      if (view.Sum("xg_serve_cfd_launched_total") >
          static_cast<double>(bound) + view.Sum("xg_serve_cfd_failed_total")) {
        errors.push_back("serve CFD launches exceed one per key per window");
      }
    }
  }

  Digest d;
  d.Pod(out.events);
  d.Pod(out.spans);
  for (const obs::MetricSample& s : samples) {
    d.Str(RegistryView::Key(s));
    d.Pod(s.value);
    d.Pod(s.hist.count);
    d.Pod(s.hist.sum);
    for (uint64_t c : s.hist.counts) d.Pod(c);
  }
  for (double v : out.alert_to_result_s) d.Pod(v);
  d.Pod(out.submitted);
  d.Pod(out.completed);
  d.Pod(out.goodput);
  for (uint64_t c : out.served_latency.counts) d.Pod(c);
  d.Pod(out.served_latency.sum);
  out.digest = d.h;
  obs::EndSpanIf(spans, check);
  obs::EndSpanIf(spans, root);
  return out;
}

/// Aggregate of the fixed virtual set (the first `kVirtualDays` distinct
/// days of the seed), so its numbers depend on the seed alone.
struct VirtualSet {
  size_t days = 0;
  std::map<std::string, double> counters;
  std::map<std::string, Distribution> dists;
  std::vector<double> alert_to_result_s;
  Distribution advisory_ms;
  uint64_t submitted = 0, goodput = 0;
  double events = 0, spans = 0, warn = 0, instruments = 0;

  void Add(const DayResult& r) {
    ++days;
    for (const auto& [k, v] : r.counters) counters[k] += v;
    dists["telemetry"].Merge(r.telemetry_hist);
    for (const auto& [k, h] : r.stage_hists) dists[k].MergeHdr(h);
    alert_to_result_s.insert(alert_to_result_s.end(),
                             r.alert_to_result_s.begin(),
                             r.alert_to_result_s.end());
    advisory_ms.MergeHdr(r.served_latency);
    submitted += r.submitted;
    goodput += r.goodput;
    events += static_cast<double>(r.events);
    spans += static_cast<double>(r.spans);
    warn += static_cast<double>(r.warn_records);
    instruments = static_cast<double>(r.instruments);
  }
  double PerDay(const std::string& counter) const {
    auto it = counters.find(counter);
    return it == counters.end() || days == 0
               ? 0.0
               : it->second / static_cast<double>(days);
  }
  double Total(const std::string& counter) const {
    auto it = counters.find(counter);
    return it == counters.end() ? 0.0 : it->second;
  }
  double Pct(const std::string& dist, double p) const {
    auto it = dists.find(dist);
    return it == dists.end() ? 0.0 : it->second.Percentile(p);
  }
};

// =========================================================== cfd workload

constexpr int kCfdSteps = 120;  ///< FabricConfig::cfd_steps
/// Run(kCfdSteps) is issued as Run(kCfdChunkSteps) calls, the same steps,
/// so a job can be timed in parts: preamble, each chunk, probes.
constexpr int kCfdChunkSteps = 10;
static_assert(kCfdSteps % kCfdChunkSteps == 0);
constexpr size_t kJobParts = 2 + kCfdSteps / kCfdChunkSteps;
constexpr size_t kPoolWorkers = 2;
/// Post-projection divergence (1/s) every job must stay under: the
/// coarse-grid tolerance of the solver's own tests.
constexpr double kMaxDivergenceTol = 0.5;
const char* const kKernels[] = {"sor",     "residual", "advect",
                                "diffuse_force", "project",
                                "max_divergence"};

/// Exterior telemetry one job starts from (the fabric's TelemetryFrame
/// exterior aggregates).
struct CfdInput {
  double wind_ms = 0.0;
  double dir_deg = 0.0;
  double temp_c = 0.0;
  double greenhouse_c = 0.0;
};

std::vector<CfdInput> MakeCfdInputs(uint64_t seed, size_t n) {
  Rng rng(Mix(seed ^ 0xCFD));
  std::vector<CfdInput> in(n);
  for (CfdInput& c : in) {
    c.wind_ms = rng.Uniform(0.5, 6.0);
    c.dir_deg = rng.Uniform(0.0, 360.0);
    c.temp_c = rng.Uniform(5.0, 35.0);
    c.greenhouse_c = rng.Uniform(1.0, 4.0);
  }
  return in;
}

struct JobResult {
  double wall_ms = 0.0;
  std::vector<double> part_ms;  ///< the same interval in kJobParts parts
  uint64_t cell_updates = 0;
  cfd::StepStats last;
  std::vector<double> probes;
  uint64_t digest = 0;  ///< hash of every field and probe, bit for bit
  std::vector<std::string> errors;
};

/// The call sequence Fabric::ExecuteCfd makes in kFull mode, timed whole
/// and in parts.
JobResult RunJob(const CfdInput& in, ThreadPool* pool,
                 obs::KernelTimer* timer, obs::Tracer* spans,
                 const obs::TraceContext& parent) {
  JobResult out;
  const int64_t t0 = HostNs();
  std::vector<int64_t> marks = {t0};
  const obs::TraceContext job = obs::StartSpanIf(
      spans, pool ? "cfd.job.pool" : "cfd.job.serial", "cfd", parent);

  const obs::TraceContext case_span =
      obs::StartSpanIf(spans, "cfd.case", "cfd", job);
  cfd::CfdCase c;
  c.steps = kCfdSteps;
  c.boundary = cfd::BoundaryFromTelemetry(in.wind_ms, in.dir_deg, in.temp_c,
                                          in.temp_c + in.greenhouse_c);
  auto parsed = cfd::ParseCase(cfd::FormatCase(c));
  if (parsed.ok()) {
    c = parsed.take();
  } else {
    out.errors.push_back("case file did not parse back");
  }
  obs::EndSpanIf(spans, case_span);

  const obs::TraceContext mesh_span =
      obs::StartSpanIf(spans, "cfd.mesh", "cfd", job);
  cfd::Mesh mesh(c.mesh);
  obs::EndSpanIf(spans, mesh_span);

  const obs::TraceContext init_span =
      obs::StartSpanIf(spans, "cfd.init", "cfd", job);
  cfd::Solver solver(mesh, c.solver, pool);
  solver.set_kernel_timer(timer);
  solver.Initialize(c.boundary);
  obs::EndSpanIf(spans, init_span);

  marks.push_back(HostNs());
  const obs::TraceContext run_span =
      obs::StartSpanIf(spans, "cfd.run", "cfd", job);
  for (int done = 0; done < c.steps; done += kCfdChunkSteps) {
    out.last = solver.Run(std::min(kCfdChunkSteps, c.steps - done));
    marks.push_back(HostNs());
  }
  obs::EndSpanIf(spans, run_span);

  // Station probes at 2 m on a 3x3 grid over the screen house.
  const obs::TraceContext probe_span =
      obs::StartSpanIf(spans, "cfd.probes", "cfd", job);
  const cfd::MeshParams& mp = c.mesh;
  for (int a = 1; a <= 3; ++a) {
    for (int b = 1; b <= 3; ++b) {
      const double x = mp.house_x0 + (mp.house_x1 - mp.house_x0) * a / 4.0;
      const double y = mp.house_y0 + (mp.house_y1 - mp.house_y0) * b / 4.0;
      out.probes.push_back(solver.SpeedAtPoint(x, y, 2.0));
      out.probes.push_back(solver.TemperatureAtPoint(x, y, 2.0));
    }
  }
  obs::EndSpanIf(spans, probe_span);
  obs::EndSpanIf(spans, job);
  marks.push_back(HostNs());
  out.wall_ms = (marks.back() - t0) / 1e6;
  for (size_t i = 1; i < marks.size(); ++i) {
    out.part_ms.push_back((marks[i] - marks[i - 1]) / 1e6);
  }
  if (out.part_ms.size() != kJobParts) {
    out.errors.push_back("case file changed the step count");
  }
  out.cell_updates = solver.total_cell_updates();

  Digest d;
  d.Doubles(solver.u());
  d.Doubles(solver.v());
  d.Doubles(solver.w());
  d.Doubles(solver.temperature());
  d.Doubles(solver.pressure());
  d.Doubles(out.probes);
  d.Pod(out.last.max_divergence);
  d.Pod(out.last.poisson_residual);
  out.digest = d.h;
  if (!(out.last.max_divergence < kMaxDivergenceTol)) {
    out.errors.push_back("max divergence above tolerance");
  }
  return out;
}

// ================================================================ driver

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_file;  ///< traced run: Chrome trace of the spans
  /// Set when this process is a cold set-up probe: the host time (ns) its
  /// parent spawned it at, and the distinct input it warms up with.
  int64_t setup_probe_ns = -1;
  size_t setup_slot = 0;
};

void WriteTrace(const obs::Tracer& spans, const Args& args) {
  if (args.trace_file.empty()) return;
  std::ofstream os(args.trace_file);
  os << obs::ToChromeTraceJson(spans.Snapshot()) << "\n";
  if (!os) {
    std::fprintf(stderr, "xgbench: cannot write %s\n",
                 args.trace_file.c_str());
  }
}

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else if (k == "--setup-probe") {
      a.setup_probe_ns = std::strtoll(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--setup-slot") {
      a.setup_slot = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (a.workload == "fabric_day" || a.workload == "serve_herd" ||
          a.workload == "cfd_job") &&
         a.seconds > 0.0 && (a.trace == 0 || a.trace == 1);
}

/// Per part of a timed piece of work, the fastest repeat seen so far.
/// Contention on a shared host only ever adds time, so this estimates the
/// cost of the code itself.
struct PartBest {
  std::vector<double> ms;

  void Add(const std::vector<double>& part_ms) {
    if (ms.empty()) {
      ms.assign(part_ms.size(), std::numeric_limits<double>::infinity());
    }
    for (size_t p = 0; p < part_ms.size() && p < ms.size(); ++p) {
      ms[p] = std::min(ms[p], part_ms[p]);
    }
  }
  double Sum() const {
    double sum = 0.0;
    for (double v : ms) sum += v;
    return sum;
  }
};

/// Timed items of one run. Host speed comes in phases of seconds that can
/// cover much of a run. So each item is timed in parts (a day's
/// construction and each simulated hour; a CFD job's preamble, each
/// 10-step chunk and its probes, serially and pooled), the end-to-end time
/// of a distinct input is the sum of each part's fastest repeat, and the
/// run reports the median over the inputs.
struct Window {
  explicit Window(size_t inputs) : best(inputs), ops(inputs, 0.0) {}

  std::vector<double> item_ms;  ///< every timed item, in order
  std::vector<PartBest> best;   ///< per distinct input
  std::vector<double> ops;      ///< per distinct input: operations per item

  void AddItem(size_t slot, const std::vector<double>& part_ms,
               double item_ops) {
    double total = 0.0;
    for (double v : part_ms) total += v;
    best[slot].Add(part_ms);
    item_ms.push_back(total);
    ops[slot] = item_ops;
  }
};

// ------------------------------------------------------- cold set-ups

/// Cold set-ups take this share of the timed window's host time, spread
/// through it, and run at least kSetupRepeats times and once per distinct
/// input. One cold serve_herd set-up reads anywhere from 0.3 to 0.6 s on a
/// busy host, so each distinct input needs several repeats.
constexpr double kSetupShare = 0.5;
constexpr size_t kSetupRepeats = 4;

/// Runs one set-up in a fresh process of this binary (--setup-probe) and
/// returns its part times (ms): from the spawn until the probe's main(),
/// then each part of the set-up. Empty, with a reason in `errors`, when the
/// probe fails; the probe's own failed checks also land in `errors`.
std::vector<double> SpawnSetupProbe(const Args& args, size_t slot,
                                    std::vector<std::string>& errors) {
  int fds[2];
  if (pipe(fds) != 0) {
    errors.push_back("cannot open a pipe to the set-up probe");
    return {};
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> words = {
      "/proc/self/exe", "--workload", args.workload, "--seed",
      std::to_string(args.seed), "--seconds", "1", "--trace", "0",
      "--setup-slot", std::to_string(slot), "--setup-probe",
      std::to_string(HostNs())};
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (rc == 0 && waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    errors.push_back("cold set-up probe did not run to its end");
    return {};
  }
  // "setup <failed checks> <ms> <ms> ..."
  std::vector<double> parts;
  char* cur = out.data();
  if (out.rfind("setup ", 0) != 0) {
    errors.push_back("cold set-up probe printed no result");
    return {};
  }
  cur += 6;
  const long failed = std::strtol(cur, &cur, 10);
  for (char* end = cur;; cur = end) {
    const double v = std::strtod(cur, &end);
    if (end == cur) break;
    parts.push_back(v);
  }
  if (failed != 0) errors.push_back("cold set-up failed a check");
  return parts;
}

/// The cold set-ups of one run. Each runs in its own process and warms up
/// with the next distinct input in turn; they are interleaved with the
/// timed items, so they meet the same phases of host speed. setup_s is,
/// per distinct input, the sum of each part's fastest cold repeat, and the
/// median over the inputs (as item_ms.best is for items): the warm-up
/// item's cost differs between inputs, and one input would make setup_s
/// depend on which the seed drew.
class ColdSetups {
 public:
  ColdSetups(const Args& args, size_t inputs, Checks& checks)
      : args_(args), best_(inputs), checks_(checks) {}

  /// Runs probes until they have taken kSetupShare of `window_ns`.
  void KeepUpWith(int64_t window_ns) {
    while (spent_ns_ < static_cast<int64_t>(kSetupShare * window_ns)) Probe();
  }
  /// Tops up to the minimum number of probes.
  void Finish() {
    while (probes_ < std::max(kSetupRepeats, best_.size())) Probe();
  }
  int64_t spent_ns() const { return spent_ns_; }

  double SetupS() const {
    std::vector<double> per_input;
    for (const PartBest& b : best_) {
      if (!b.ms.empty()) per_input.push_back(b.Sum() / 1e3);
    }
    return Median(per_input);
  }

 private:
  void Probe() {
    const size_t slot = probes_++ % best_.size();
    const int64_t t0 = HostNs();
    std::vector<std::string> errors;
    const std::vector<double> parts = SpawnSetupProbe(args_, slot, errors);
    spent_ns_ += HostNs() - t0;
    if (!parts.empty()) best_[slot].Add(parts);
    checks_.Item(errors);
  }

  const Args& args_;
  std::vector<PartBest> best_;
  Checks& checks_;
  size_t probes_ = 0;
  int64_t spent_ns_ = 0;
};

std::vector<uint64_t> DaySeeds(uint64_t seed, size_t days) {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < days; ++i) out.push_back(Mix(seed * 1000003ull + i));
  return out;
}

/// Distinct days per seed; the window cycles through them.
size_t DistinctDays(bool herd) { return herd ? 4 : 32; }

/// The fabric workloads' set-up, timed in parts: the inputs, then the
/// warm-up day's construction and each of its hours.
std::vector<double> SetupFabric(const Args& args, const LogCounter& logs,
                                std::vector<std::string>& errors) {
  const bool herd = args.workload == "serve_herd";
  const int64_t t0 = HostNs();
  const std::vector<uint64_t> day_seeds =
      DaySeeds(args.seed, DistinctDays(herd));
  std::vector<double> parts = {static_cast<double>(HostNs() - t0) / 1e6};
  DayResult warm =
      RunDay(day_seeds.at(args.setup_slot), DayMode{true, herd}, nullptr, logs);
  parts.insert(parts.end(), warm.part_ms.begin(), warm.part_ms.end());
  errors = warm.errors;
  return parts;
}

constexpr size_t kCfdInputs = 2;

/// cfd_job's set-up, timed in parts: the inputs, the pool spawn, then each
/// part of the warm-up job run serially and pooled.
std::vector<double> SetupCfd(const Args& args,
                             std::vector<std::string>& errors) {
  int64_t mark = HostNs();
  std::vector<double> parts;
  auto lap = [&] {
    const int64_t now = HostNs();
    parts.push_back(static_cast<double>(now - mark) / 1e6);
    mark = now;
  };
  const std::vector<CfdInput> inputs = MakeCfdInputs(args.seed, kCfdInputs);
  lap();
  ThreadPool pool(kPoolWorkers);
  lap();
  const CfdInput& in = inputs.at(args.setup_slot);
  JobResult a = RunJob(in, nullptr, nullptr, nullptr, {});
  JobResult b = RunJob(in, &pool, nullptr, nullptr, {});
  parts.insert(parts.end(), a.part_ms.begin(), a.part_ms.end());
  parts.insert(parts.end(), b.part_ms.begin(), b.part_ms.end());
  errors = a.errors;
  errors.insert(errors.end(), b.errors.begin(), b.errors.end());
  if (a.digest != b.digest) errors.push_back("pooled fields != serial");
  return parts;
}

/// The --setup-probe process: one cold set-up, reported to the parent on
/// stdout. `main_ns` is when main() began.
int RunSetupProbe(const Args& args, int64_t main_ns, const LogCounter& logs) {
  // Never outlive the parent, even if it is killed.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::vector<std::string> errors;
  std::vector<double> parts = {
      static_cast<double>(main_ns - args.setup_probe_ns) / 1e6};
  const std::vector<double> setup = args.workload == "cfd_job"
                                        ? SetupCfd(args, errors)
                                        : SetupFabric(args, logs, errors);
  parts.insert(parts.end(), setup.begin(), setup.end());
  for (const std::string& e : errors) {
    std::fprintf(stderr, "xgbench: set-up check failed: %s\n", e.c_str());
  }
  std::printf("setup %zu", errors.size());
  for (double v : parts) std::printf(" %.17g", v);
  std::printf("\n");
  return 0;
}

void ReportEndToEnd(const Window& w, double setup_s, Report& rep) {
  std::vector<double> best_ms, ops_per_s;
  for (size_t i = 0; i < w.best.size(); ++i) {
    best_ms.push_back(w.best[i].Sum());
    ops_per_s.push_back(Ratio(w.ops[i], best_ms.back() / 1e3));
  }
  rep.Add("setup_s", setup_s, "s");
  rep.Add("peak_rss_mb", PeakRssMb(), "MB");
  rep.Add("item_ms.best", Median(best_ms), "ms");
  rep.Add("ops_per_s", Median(ops_per_s), "1/s");
}

/// Per-layer metrics of the traced run, by name. Every workload reports
/// every name; the defaults are zero for the layers a workload bypasses.
struct LayerMetrics {
  std::map<std::string, std::pair<double, std::string>> values;
  void Set(const std::string& name, double v, const std::string& unit) {
    values[name] = {v, unit};
  }
};

/// Host-time spread of all items, for the traced run.
void ReportItemSpread(const Window& w, LayerMetrics& m);
void FabricLayerDefaults(LayerMetrics& m);
void CfdLayerDefaults(LayerMetrics& m);

int RunFabric(const Args& args, const LogCounter& logs, Report& rep,
              Checks& checks) {
  const bool herd = args.workload == "serve_herd";
  const bool traced = args.trace == 1;
  const size_t kVirtualDays = DistinctDays(herd);
  obs::Tracer spans;
  spans.set_clock(HostUs);
  spans.set_enabled(traced);
  Window w(kVirtualDays);
  // The set-up runs in probe processes; the traced run reports no setup_s.
  ColdSetups setups(args, kVirtualDays, checks);
  const std::vector<uint64_t> day_seeds = DaySeeds(args.seed, kVirtualDays);

  std::vector<uint64_t> first_digest(kVirtualDays, 0);
  std::vector<bool> seen(kVirtualDays, false);
  VirtualSet vset;
  // Paired traced-run samples (ms per day, per mode).
  std::vector<double> untraced_ms, traced_ms, obs_off_diff_ms,
      no_load_diff_ms, ns_per_event;

  const int64_t start = HostNs();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  for (size_t i = 0;; ++i) {
    const int64_t window_ns = HostNs() - start - setups.spent_ns();
    if (window_ns >= budget_ns && vset.days >= kVirtualDays) break;
    if (!traced) setups.KeepUpWith(window_ns);
    const size_t slot = i % kVirtualDays;
    const uint64_t seed = day_seeds[slot];

    // Traced run: the paired passes go before the measured day on odd
    // cycles and after it on even ones, so neither side always runs first.
    DayResult t, off, idle;
    auto paired = [&] {
      t = RunDay(seed, DayMode{true, herd}, &spans, logs);
      off = RunDay(seed, DayMode{false, herd}, nullptr, logs);
      if (herd) idle = RunDay(seed, DayMode{true, false}, nullptr, logs);
    };
    if (traced && i % 2 == 1) paired();

    // The measured day: untraced, observability at its defaults.
    DayResult day = RunDay(seed, DayMode{true, herd}, nullptr, logs);
    w.AddItem(slot, day.part_ms,
              static_cast<double>(herd ? day.requests : day.frames_stored));
    if (!seen[slot]) {
      seen[slot] = true;
      first_digest[slot] = day.digest;
      vset.Add(day);
    } else if (day.digest != first_digest[slot]) {
      day.errors.push_back("repeated day diverged on the virtual clock");
    }
    checks.Item(day.errors);
    if (!traced) continue;

    // The same day with the driver's spans, with observability off, and
    // (serve_herd) without requesters.
    if (i % 2 == 0) paired();
    untraced_ms.push_back(day.wall_ms);
    ns_per_event.push_back(
        day.wall_ms * 1e6 /
        static_cast<double>(std::max<uint64_t>(1, day.events)));
    if (t.digest != first_digest[slot]) {
      t.errors.push_back("traced day diverged on the virtual clock");
    }
    checks.Item(t.errors);
    traced_ms.push_back(t.wall_ms);
    checks.Item(off.errors);
    obs_off_diff_ms.push_back(day.wall_ms - off.wall_ms);
    if (herd) {
      checks.Item(idle.errors);
      no_load_diff_ms.push_back(day.wall_ms - idle.wall_ms);
    }
  }

  if (herd) {
    std::printf("serve_herd: %.0f requesters polling every %.0f s, open-loop "
                "Poisson arrivals on the virtual clock; the generator is never "
                "late (lateness 0 s by construction)\n",
                kRequesters, kPollPeriodS);
  }
  std::printf("%s: %zu days timed (%zu distinct), %.0f sim events/day\n",
              args.workload.c_str(), w.item_ms.size(), kVirtualDays,
              Ratio(vset.events, static_cast<double>(vset.days)));

  if (!traced) {
    setups.Finish();
    ReportEndToEnd(w, setups.SetupS(), rep);
    return 0;
  }

  LayerMetrics m;
  FabricLayerDefaults(m);
  CfdLayerDefaults(m);
  const double days = static_cast<double>(vset.days);
  ReportItemSpread(w, m);
  m.Set("trace.overhead_ratio",
        Ratio(Median(traced_ms), Median(untraced_ms)) - 1.0, "ratio");
  m.Set("log.warn_records", vset.warn / days, "count/day");
  m.Set("sim.events", vset.events / days, "count/day");
  m.Set("sim.ns_per_event", Median(ns_per_event), "ns");
  m.Set("obs.spans", vset.spans / days, "count/day");
  m.Set("obs.instruments", vset.instruments, "count");
  m.Set("obs.ns_per_span",
        Median(obs_off_diff_ms) * 1e6 / std::max(1.0, vset.spans / days),
        "ns");
  m.Set("virt.telemetry_latency_ms.p50", vset.Pct("telemetry", 50), "ms");
  m.Set("virt.telemetry_latency_ms.p99", vset.Pct("telemetry", 99), "ms");
  m.Set("virt.alert_to_result_s.p50", Median(vset.alert_to_result_s), "s");
  m.Set("virt.telemetry_delivered_ratio",
        Ratio(vset.Total("telemetry.stored"), vset.Total("telemetry.sent")),
        "ratio");
  for (const CounterSpec& c : kCounters) {
    m.Set(c.metric, vset.PerDay(c.metric), "count/day");
  }
  m.Set("laminar.alert_ratio",
        Ratio(vset.Total("laminar.alerts"), vset.Total("laminar.cycles")),
        "ratio");
  for (const char* stage : kStages) {
    m.Set(std::string("stage.") + stage + "_ms.p50", vset.Pct(stage, 50),
          "ms");
  }
  if (herd) {
    const double requests = vset.Total("serve.requests");
    m.Set("virt.advisory_latency_ms.p50", vset.advisory_ms.Percentile(50),
          "ms");
    m.Set("virt.advisory_latency_ms.p99", vset.advisory_ms.Percentile(99),
          "ms");
    m.Set("virt.advisory_goodput_ratio",
          Ratio(static_cast<double>(vset.goodput),
                static_cast<double>(vset.submitted)),
          "ratio");
    for (const auto& [metric, status] : kResponseRatios) {
      m.Set(metric, Ratio(vset.Total(std::string("serve.") + status), requests),
            "ratio");
    }
    m.Set("serve.hit_coalesce_ratio",
          Ratio(vset.Total("serve.hits") + vset.Total("serve.coalesced"),
                requests),
          "ratio");
    m.Set("serve.overload_transitions",
          vset.PerDay("serve.overload_transitions"), "count/day");
    m.Set("serve.ns_per_request",
          Median(no_load_diff_ms) * 1e6 /
              std::max(1.0, requests / days),
          "ns");
  }
  for (const auto& [name, vu] : m.values) rep.Add(name, vu.first, vu.second);
  WriteTrace(spans, args);
  return 0;
}

int RunCfd(const Args& args, Report& rep, Checks& checks) {
  const bool traced = args.trace == 1;
  constexpr size_t kInputs = kCfdInputs;
  obs::Tracer spans;
  spans.set_clock(HostUs);
  spans.set_enabled(traced);
  Window w(kInputs);
  // The set-up runs in probe processes; the traced run reports no setup_s.
  ColdSetups setups(args, kInputs, checks);
  const std::vector<CfdInput> inputs = MakeCfdInputs(args.seed, kInputs);
  ThreadPool pool(kPoolWorkers);

  std::vector<uint64_t> first_digest(kInputs, 0);
  std::vector<bool> seen(kInputs, false);
  std::vector<double> serial_ms, pool_ms, traced_ms;
  double max_div = 0.0, residual = 0.0;
  uint64_t cell_updates = 0;
  obs::MetricsRegistry serial_reg, pool_reg;
  obs::KernelTimer serial_timer(&serial_reg, HostUs);
  obs::KernelTimer pool_timer(&pool_reg, HostUs);
  uint64_t timed_steps = 0;  ///< steps under each KernelTimer

  const int64_t start = HostNs();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  for (size_t i = 0;; ++i) {
    const int64_t window_ns = HostNs() - start - setups.spent_ns();
    if (window_ns >= budget_ns && i >= kInputs) break;
    if (!traced) setups.KeepUpWith(window_ns);
    const size_t slot = i % kInputs;
    // Serial and pooled runs swap order every cycle, and the traced pair
    // goes before the measured one on odd cycles.
    JobResult s, p, ts, tp;
    auto run_pair = [&](JobResult& a, JobResult& b, obs::KernelTimer* ta,
                        obs::KernelTimer* tb, obs::Tracer* log,
                        const obs::TraceContext& parent) {
      if (i % 2 == 0) {
        a = RunJob(inputs[slot], nullptr, ta, log, parent);
        b = RunJob(inputs[slot], &pool, tb, log, parent);
      } else {
        b = RunJob(inputs[slot], &pool, tb, log, parent);
        a = RunJob(inputs[slot], nullptr, ta, log, parent);
      }
    };
    auto traced_pair = [&] {
      const obs::TraceContext pair = spans.StartTrace("cfd.pair", "bench");
      run_pair(ts, tp, &serial_timer, &pool_timer, &spans, pair);
      spans.EndSpan(pair);
    };
    if (traced && i % 2 == 1) traced_pair();
    run_pair(s, p, nullptr, nullptr, nullptr, {});
    std::vector<double> parts = s.part_ms;
    parts.insert(parts.end(), p.part_ms.begin(), p.part_ms.end());
    w.AddItem(slot, parts,
              static_cast<double>(s.cell_updates + p.cell_updates));
    serial_ms.push_back(s.wall_ms);
    pool_ms.push_back(p.wall_ms);
    if (p.digest != s.digest) {
      s.errors.push_back("pooled fields differ from serial fields");
    }
    if (p.cell_updates != s.cell_updates) {
      s.errors.push_back("pooled cell updates differ from serial");
    }
    if (!seen[slot]) {
      seen[slot] = true;
      first_digest[slot] = s.digest;
      max_div = std::max(max_div, s.last.max_divergence);
      residual = std::max(residual, s.last.poisson_residual);
      cell_updates = s.cell_updates;
    } else if (s.digest != first_digest[slot]) {
      s.errors.push_back("repeated job diverged");
    }
    s.errors.insert(s.errors.end(), p.errors.begin(), p.errors.end());
    checks.Item(s.errors);
    if (!traced) continue;

    // Traced run: the same pair with a host-clock KernelTimer attached.
    if (i % 2 == 0) traced_pair();
    timed_steps += kCfdSteps;
    traced_ms.push_back(ts.wall_ms + tp.wall_ms);
    if (ts.digest != first_digest[slot] || tp.digest != first_digest[slot]) {
      ts.errors.push_back("timed job diverged");
    }
    checks.Item(ts.errors);
  }
  std::printf("cfd_job: %zu job pairs timed on a 48x40x12 mesh, %d steps, "
              "pool of %zu workers\n",
              w.item_ms.size(), kCfdSteps, kPoolWorkers);

  if (!traced) {
    setups.Finish();
    ReportEndToEnd(w, setups.SetupS(), rep);
    return 0;
  }
  LayerMetrics m;
  FabricLayerDefaults(m);
  CfdLayerDefaults(m);
  ReportItemSpread(w, m);
  m.Set("trace.overhead_ratio",
        Ratio(Median(traced_ms), Median(w.item_ms)) - 1.0, "ratio");
  const double serial_p50 = Median(serial_ms), pool_p50 = Median(pool_ms);
  m.Set("cfd.serial_ms.p50", serial_p50, "ms");
  m.Set("cfd.pool_ms.p50", pool_p50, "ms");
  m.Set("cfd.pool_speedup", Ratio(serial_p50, pool_p50), "ratio");
  m.Set("cfd.cell_updates", static_cast<double>(cell_updates), "count");
  m.Set("cfd.serial.mcells_per_s",
        Ratio(static_cast<double>(cell_updates), serial_p50 * 1e3), "Mcell/s");
  m.Set("cfd.pool.mcells_per_s",
        Ratio(static_cast<double>(cell_updates), pool_p50 * 1e3), "Mcell/s");
  m.Set("cfd.max_divergence", max_div, "1/s");
  m.Set("cfd.poisson_residual", residual, "1/s2");
  m.Set("cfd.case_ms", Median(SpanMs(spans, "cfd.case")), "ms");
  m.Set("cfd.mesh_ms", Median(SpanMs(spans, "cfd.mesh")), "ms");
  m.Set("cfd.init_ms", Median(SpanMs(spans, "cfd.init")), "ms");
  for (const char* k : kKernels) {
    m.Set(std::string("cfd.serial.") + k + "_ms",
          Ratio(serial_timer.TotalMs(k), static_cast<double>(timed_steps)),
          "ms/step");
    m.Set(std::string("cfd.pool.") + k + "_ms",
          Ratio(pool_timer.TotalMs(k), static_cast<double>(timed_steps)),
          "ms/step");
  }
  for (const auto& [name, vu] : m.values) rep.Add(name, vu.first, vu.second);
  WriteTrace(spans, args);
  return 0;
}

void ReportItemSpread(const Window& w, LayerMetrics& m) {
  m.Set("item_ms.p50", Median(w.item_ms), "ms");
  m.Set("item_ms.p90", Quantile(w.item_ms, 0.9), "ms");
  m.Set("item.count", static_cast<double>(w.item_ms.size()), "count");
}

void FabricLayerDefaults(LayerMetrics& m) {
  for (const char* n : {"log.warn_records", "sim.events", "obs.spans"}) {
    m.Set(n, 0.0, "count/day");
  }
  m.Set("obs.instruments", 0.0, "count");
  m.Set("sim.ns_per_event", 0.0, "ns");
  m.Set("obs.ns_per_span", 0.0, "ns");
  m.Set("serve.ns_per_request", 0.0, "ns");
  for (const char* n : {"virt.telemetry_latency_ms.p50",
                        "virt.telemetry_latency_ms.p99",
                        "virt.advisory_latency_ms.p50",
                        "virt.advisory_latency_ms.p99"}) {
    m.Set(n, 0.0, "ms");
  }
  m.Set("virt.alert_to_result_s.p50", 0.0, "s");
  for (const char* n :
       {"virt.telemetry_delivered_ratio", "virt.advisory_goodput_ratio",
        "laminar.alert_ratio", "serve.hit_coalesce_ratio"}) {
    m.Set(n, 0.0, "ratio");
  }
  for (const auto& [metric, status] : kResponseRatios) {
    m.Set(metric, 0.0, "ratio");
  }
  for (const CounterSpec& c : kCounters) m.Set(c.metric, 0.0, "count/day");
  m.Set("serve.overload_transitions", 0.0, "count/day");
  for (const char* stage : kStages) {
    m.Set(std::string("stage.") + stage + "_ms.p50", 0.0, "ms");
  }
}

void CfdLayerDefaults(LayerMetrics& m) {
  for (const char* n : {"cfd.serial_ms.p50", "cfd.pool_ms.p50", "cfd.case_ms",
                        "cfd.mesh_ms", "cfd.init_ms"}) {
    m.Set(n, 0.0, "ms");
  }
  m.Set("cfd.pool_speedup", 0.0, "ratio");
  m.Set("cfd.cell_updates", 0.0, "count");
  m.Set("cfd.serial.mcells_per_s", 0.0, "Mcell/s");
  m.Set("cfd.pool.mcells_per_s", 0.0, "Mcell/s");
  m.Set("cfd.max_divergence", 0.0, "1/s");
  m.Set("cfd.poisson_residual", 0.0, "1/s2");
  for (const char* k : kKernels) {
    m.Set(std::string("cfd.serial.") + k + "_ms", 0.0, "ms/step");
    m.Set(std::string("cfd.pool.") + k + "_ms", 0.0, "ms/step");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t main_ns = HostNs();
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: xgbench_driver --workload fabric_day|serve_herd|"
                 "cfd_job --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  LogCounter logs;
  SetLogSink([&logs](const LogRecord& r) {
    if (r.level == LogLevel::kWarn) logs.warn.fetch_add(1);
  });

  if (args.setup_probe_ns >= 0) {
    const int rc = RunSetupProbe(args, main_ns, logs);
    SetLogSink(nullptr);
    return rc;
  }
  Report rep;
  Checks checks;
  const int rc = args.workload == "cfd_job"
                     ? RunCfd(args, rep, checks)
                     : RunFabric(args, logs, rep, checks);
  SetLogSink(nullptr);
  if (rc != 0) return rc;
  rep.Print(checks.failed == 0, checks.attempted, checks.failed);
  return checks.failed == 0 ? 0 : 1;
}
