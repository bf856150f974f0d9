#include "serve/loadgen.hpp"

#include <algorithm>
#include <cmath>

namespace xg::serve {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}  // namespace

LoadGenerator::LoadGenerator(sim::Simulation& sim, AdvisoryServer& server,
                             LoadGenConfig cfg)
    : sim_(sim), server_(server), cfg_(cfg), rng_(cfg.seed) {
  rate_per_s_ = cfg_.request_period_s > 0.0
                    ? cfg_.requesters / cfg_.request_period_s
                    : cfg_.requesters;
  end_us_ = sim::SimTime::Seconds(cfg_.start_s + cfg_.duration_s).micros();
}

FieldConditions LoadGenerator::DrawConditions(double t_s, Rng& rng) const {
  const double phase =
      cfg_.drift_period_s > 0.0 ? kTwoPi * t_s / cfg_.drift_period_s : 0.0;
  FieldConditions c;
  c.wind_ms = std::max(0.0, cfg_.base_wind_ms +
                                cfg_.drift_wind_ms * std::sin(phase) +
                                rng.Gaussian(0.0, cfg_.wind_jitter_ms));
  c.dir_deg = cfg_.base_dir_deg + rng.Gaussian(0.0, cfg_.dir_jitter_deg);
  c.temp_c = cfg_.base_temp_c + cfg_.drift_temp_c * std::sin(phase) +
             rng.Gaussian(0.0, cfg_.temp_jitter_c);
  c.humidity_pct = std::clamp(
      cfg_.base_humidity_pct + rng.Gaussian(0.0, cfg_.humidity_jitter_pct),
      0.0, 100.0);
  return c;
}

void LoadGenerator::Start() {
  sim_.ScheduleAt(sim::SimTime::Seconds(cfg_.start_s), [this] {
    Fire();
    ScheduleNext();
  });
}

void LoadGenerator::ScheduleNext() {
  if (rate_per_s_ <= 0.0) return;
  const double gap_s = rng_.Exponential(1.0 / rate_per_s_);
  const int64_t next_us =
      sim_.Now().micros() + std::max<int64_t>(1, std::llround(gap_s * 1e6));
  if (next_us > end_us_) return;
  sim_.ScheduleAt(sim::SimTime::Micros(next_us), [this] {
    Fire();
    ScheduleNext();
  });
}

void LoadGenerator::Fire() {
  const int64_t now = sim_.Now().micros();
  AdvisoryServer::Request req;
  req.conditions = DrawConditions(sim_.Now().seconds(), rng_);
  const bool with_deadline =
      cfg_.deadline_us > 0 && rng_.Bernoulli(cfg_.deadline_fraction);
  if (with_deadline) {
    req.budget = obs::slo::DeadlineBudget(now, cfg_.deadline_us);
    ++stats_.with_deadline;
  }
  ++stats_.submitted;
  server_.Submit(req, [this, with_deadline](const AdvisoryServer::Response& r) {
    ++stats_.completed;
    ++stats_.responses[static_cast<int>(r.status)];
    if (r.payload != nullptr) {
      ++stats_.served;
      stats_.served_latency.Record(r.latency_us);
      if (with_deadline) {
        if (r.late) {
          ++stats_.late;
        } else {
          ++stats_.goodput;
        }
      }
    } else if (with_deadline && r.late) {
      ++stats_.late;
    }
  });
}

}  // namespace xg::serve
