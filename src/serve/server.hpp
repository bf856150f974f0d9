// AdvisoryServer: the overload-robust serving front of the fabric.
//
// Request path (all on the virtual clock):
//
//   Submit ──▶ admission (CoDel + deadline + bounded queue)
//      │ shed ─▶ stale fast path: serve the cached / latest still-valid
//      │        advisory (kServedStaleShed) or drop (kShed)
//      ▼ admit
//   service completes after the modeled sojourn ──▶ cache lookup
//      ├─ fresh  ─▶ kServedFresh
//      ├─ stale  ─▶ kServedStale (no CFD refresh: the invocation bound is
//      │            one run per key per validity window)
//      └─ miss / expired ─▶ single-flight coalescing:
//            leader creates the flight and launches one CFD through the
//            (bounded) launcher; followers park on the in-flight entry —
//            unless the waiter list is full or their deadline cannot
//            survive the expected refresh, in which case they take the
//            stale fast path instead of amplifying load.
//
// Every response feeds the OverloadGovernor; sustained shedding enters
// resil::DegradedModeManager's `overload_shed` mode with hysteresis, and
// shed storms trigger FlightRecorder dumps. The server never talks to
// core directly: CFD launches go through an injected CfdLauncher and
// results arrive as opaque serialized payloads (Publish / flight done).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/sim.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "obs/slo/budget.hpp"
#include "obs/slo/flight.hpp"
#include "obs/slo/hdr.hpp"
#include "resil/degraded.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/overload.hpp"
#include "serve/quantize.hpp"

namespace xg::serve {

struct ServeConfig {
  /// Master switch (consumed by core::FabricConfig). Off by default: the
  /// seed fabric's behaviour and golden metrics are unchanged.
  bool enabled = false;
  QuantizerConfig quantize;
  CacheConfig cache;
  AdmissionConfig admission;
  OverloadConfig overload;
  /// CFD flights allowed in the air at once (pilot protection).
  size_t max_concurrent_cfd = 2;
  /// Flights queued for launch beyond that; more misses take the stale
  /// fast path. Bounded: a miss storm cannot grow this.
  size_t max_pending_flights = 8;
  /// Requesters parked on one in-flight CFD run; beyond this, followers
  /// are diverted to the stale fast path. Bounded coalescing.
  size_t max_waiters_per_flight = 4096;
  /// Conservative estimate of a CFD refresh (launch -> result) used to
  /// decide whether a deadline-carrying waiter can afford to park.
  int64_t expected_refresh_us = 120'000'000;
};

enum class ServeStatus : uint8_t {
  kServedFresh = 0,   ///< within the fresh window
  kServedStale,       ///< stale-but-valid, admitted path
  kServedStaleShed,   ///< degraded: shed/diverted to a still-valid result
  kShed,              ///< dropped; no valid result to fall back on
  kFailed,            ///< flight failed / launch rejected, no fallback
};
inline constexpr int kServeStatusCount = 5;
const char* ServeStatusName(ServeStatus s);

class XG_SIM_THREAD_CONFINED AdvisoryServer {
 public:
  struct Request {
    FieldConditions conditions;
    /// Optional deadline; default-constructed (open() == false) means the
    /// requester imposes none.
    obs::slo::DeadlineBudget budget;
  };

  struct Response {
    ServeStatus status = ServeStatus::kShed;
    AdmitDecision admit = AdmitDecision::kAdmit;
    /// Serialized CfdResult; null for kShed/kFailed. Valid only for the
    /// duration of the callback.
    const std::vector<uint8_t>* payload = nullptr;
    int64_t latency_us = 0;     ///< submit -> response, virtual time
    int64_t result_age_us = 0;  ///< age of the served result
    /// True when the request carried a budget and the response landed
    /// strictly past the deadline (DeadlineBudget::MissedAt semantics).
    bool late = false;
  };
  using Callback = std::function<void(const Response&)>;

  /// Launch one CFD run for `key`; call `done(payload, complete_us)` when
  /// it finishes (empty payload = failure). Return false to reject the
  /// launch outright (bounded pilot queue full).
  using CfdLauncher = std::function<bool(
      const ConditionKey& key, const FieldConditions& conditions,
      std::function<void(std::vector<uint8_t>, int64_t)> done)>;

  AdvisoryServer(sim::Simulation& sim, ServeConfig cfg);

  void set_launcher(CfdLauncher launcher) { launcher_ = std::move(launcher); }
  /// Overload transitions enter/exit DegradedMode::kOverloadShed here.
  void set_degraded_manager(resil::DegradedModeManager* dm) { degraded_ = dm; }
  /// Shed storms dump here with trigger "overload".
  void set_flight_recorder(obs::slo::FlightRecorder* flight);
  /// Export xg_serve_* counters/gauges and the latency HDR histogram.
  void AttachObservability(obs::MetricsRegistry* registry);

  /// Serve one request; `cb` fires exactly once (possibly synchronously
  /// on the shed fast path).
  void Submit(const Request& req, Callback cb);

  /// Feed an organically produced fabric result (alert-triggered CFD run)
  /// into the cache, and resolve any not-yet-launched flight on the same
  /// key — the fabric's own run already is the single flight.
  void Publish(const FieldConditions& conditions,
               std::vector<uint8_t> payload, int64_t complete_us);

  const ServeConfig& config() const { return cfg_; }
  const AdvisoryCache& cache() const { return cache_; }
  const AdmissionController& admission() const { return admission_; }
  const OverloadGovernor& governor() const { return governor_; }
  const Quantizer& quantizer() const { return quantizer_; }
  const obs::slo::HdrHistogram& latency_hist() const { return *latency_; }

  struct Counters {
    uint64_t requests = 0;
    uint64_t responses[kServeStatusCount] = {};
    uint64_t coalesced = 0;         ///< followers parked on a flight
    uint64_t flights_launched = 0;  ///< CFD invocations requested
    uint64_t flights_completed = 0;
    uint64_t flights_failed = 0;    ///< failed run or rejected launch
    uint64_t flights_absorbed = 0;  ///< resolved by a Publish instead
    uint64_t late_responses = 0;    ///< served strictly past the deadline
  };
  const Counters& counters() const { return counters_; }
  uint64_t Served(ServeStatus s) const {
    return counters_.responses[static_cast<int>(s)];
  }
  size_t flights_in_air() const { return active_flights_; }
  size_t flights_pending() const { return launch_queue_.size(); }

 private:
  struct Waiter {
    Callback cb;
    obs::slo::DeadlineBudget budget;
    int64_t submit_us = 0;
  };
  struct Flight {
    FieldConditions conditions;
    bool launched = false;
    std::vector<Waiter> waiters;
  };

  void Respond(const Waiter& w, ServeStatus status, AdmitDecision admit,
               const std::vector<uint8_t>* payload, int64_t result_age_us);
  /// Stale fast path: per-key entry, then cache-wide latest; kShed if
  /// neither is valid.
  void RespondFallback(const Waiter& w, const ConditionKey& key,
                       AdmitDecision admit);
  void JoinFlight(const ConditionKey& key, const FieldConditions& conditions,
                  Waiter w);
  void LaunchFlight(const ConditionKey& key);
  void OnFlightDone(const ConditionKey& key, std::vector<uint8_t> payload,
                    int64_t complete_us);
  void FailFlight(const ConditionKey& key);
  void PumpLaunchQueue();
  void OnOverloadTransition(bool overloaded, int64_t now_us, double rate);
  void OnStorm(int64_t now_us, double rate, uint64_t shed, uint64_t total);

  int64_t NowUs() const { return sim_.Now().micros(); }

  sim::Simulation& sim_;
  ServeConfig cfg_;
  Quantizer quantizer_;
  AdvisoryCache cache_;
  AdmissionController admission_;
  OverloadGovernor governor_;
  CfdLauncher launcher_;
  resil::DegradedModeManager* degraded_ = nullptr;
  obs::slo::FlightRecorder* flight_ = nullptr;

  std::map<ConditionKey, Flight> flights_;
  /// Keys of created-but-not-launched flights, FIFO; bounded by
  /// max_pending_flights.
  std::deque<ConditionKey> launch_queue_;
  size_t active_flights_ = 0;

  Counters counters_;
  std::unique_ptr<obs::slo::HdrHistogram> latency_;
};

}  // namespace xg::serve
