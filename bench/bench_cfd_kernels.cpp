// CFD kernel benchmark: per-kernel hot-path timing for the overhauled
// solver, a thread sweep, and a measured speedup against the pre-overhaul
// (copy-based) solver. Emits a machine-readable BENCH_cfd.json artifact so
// CI and regression tooling can gate on kernel performance.
//
// The "legacy" baseline below is a deliberately self-contained replica of
// the solver as it existed before the double-buffered SoA overhaul: full
// field copies at the top of Advect/DiffuseAndForce, geometry predicates
// (TypeAt) resolved per cell inside the loops, separate velocity/scalar
// boundary passes, and the branch-per-neighbor red-black SOR sweep. It is
// compiled in the same TU with the same flags, so the reported speedup is
// an apples-to-apples algorithmic comparison, not a compiler artifact.
//
// Usage:
//   bench_cfd_kernels [--smoke] [--out PATH] [--steps N] [--threads N]
//
// --smoke shrinks the mesh and step count so the whole run finishes in
// well under a second; CI uses it to validate that the artifact stays
// parseable. Exit status is nonzero if the artifact cannot be written.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.hpp"
#include "cfd/mesh.hpp"
#include "cfd/solver.hpp"
#include "common/table.hpp"
#include "common/threadpool.hpp"
#include "obs/kerneltimer.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace xg;

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Legacy (pre-overhaul) solver baseline. Serial only: the acceptance figure
// is single-thread cells/sec, and the copy-based stepping is identical in
// shape with or without the pool.
// ---------------------------------------------------------------------------
namespace legacy {

constexpr double kPi = 3.14159265358979323846;

double WindProfile(double z_m) {
  const double z = std::max(0.5, z_m);
  return std::max(0.3, std::pow(z / 10.0, 0.14));
}

class Solver {
 public:
  Solver(const cfd::Mesh& mesh, cfd::SolverParams params)
      : mesh_(mesh), params_(params) {
    const size_t n = mesh_.cell_count();
    u_.assign(n, 0.0);
    v_.assign(n, 0.0);
    w_.assign(n, 0.0);
    p_.assign(n, 0.0);
    t_.assign(n, 0.0);
    u0_.assign(n, 0.0);
    v0_.assign(n, 0.0);
    w0_.assign(n, 0.0);
    t0_.assign(n, 0.0);
    div_.assign(n, 0.0);
  }

  void Initialize(const cfd::Boundary& bc) {
    bc_ = bc;
    double wx, wy;
    WindVector(wx, wy);
    const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
    for (int k = 0; k < nz; ++k) {
      const double prof = WindProfile(mesh_.Z(k));
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          const size_t c = mesh_.Index(i, j, k);
          const bool inside = mesh_.InsideHouse(i, j, k);
          u_[c] = inside ? 0.0 : wx * prof;
          v_[c] = inside ? 0.0 : wy * prof;
          w_[c] = 0.0;
          p_[c] = 0.0;
          t_[c] = inside ? bc.interior_temp_c : bc.exterior_temp_c;
        }
      }
    }
    ApplyVelocityBounds();
    ApplyScalarBounds();
  }

  cfd::StepStats Step() {
    cfd::StepStats stats;
    Advect();
    ApplyVelocityBounds();
    ApplyScalarBounds();
    DiffuseAndForce();
    SolvePressure(stats);
    Project();
    stats.max_divergence = MaxDivergence();
    return stats;
  }

  void Run(int steps) {
    for (int s = 0; s < steps; ++s) Step();
  }

  double MaxDivergence() const {
    const double idx2 = 1.0 / (2.0 * mesh_.dx()),
                 idy2 = 1.0 / (2.0 * mesh_.dy()),
                 idz2 = 1.0 / (2.0 * mesh_.dz());
    const int sx = 1, sy = mesh_.nx(), sz = mesh_.nx() * mesh_.ny();
    double worst = 0.0;
    for (int k = 1; k < mesh_.nz() - 1; ++k) {
      for (int j = 1; j < mesh_.ny() - 1; ++j) {
        for (int i = 1; i < mesh_.nx() - 1; ++i) {
          const size_t c = mesh_.Index(i, j, k);
          const double d = (u_[c + sx] - u_[c - sx]) * idx2 +
                           (v_[c + sy] - v_[c - sy]) * idy2 +
                           (w_[c + sz] - w_[c - sz]) * idz2;
          worst = std::max(worst, std::abs(d));
        }
      }
    }
    return worst;
  }

 private:
  void WindVector(double& wx, double& wy) const {
    const double theta = bc_.wind_dir_deg * kPi / 180.0;
    wx = -bc_.wind_speed_ms * std::sin(theta);
    wy = -bc_.wind_speed_ms * std::cos(theta);
  }

  template <typename Fn>
  void ForEachInterior(Fn&& fn) {
    const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
    for (int k = 1; k < nz - 1; ++k) {
      for (int j = 1; j < ny - 1; ++j) {
        for (int i = 1; i < nx - 1; ++i) fn(i, j, k);
      }
    }
  }

  void ApplyVelocityBounds() {
    const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
    double wx, wy;
    WindVector(wx, wy);
    for (int k = 0; k < nz; ++k) {
      const double prof = WindProfile(mesh_.Z(k));
      for (int j = 0; j < ny; ++j) {
        {
          const size_t c = mesh_.Index(0, j, k), n = mesh_.Index(1, j, k);
          if (wx > 0) {
            u_[c] = wx * prof;
            v_[c] = wy * prof;
            w_[c] = 0.0;
          } else {
            u_[c] = u_[n];
            v_[c] = v_[n];
            w_[c] = w_[n];
          }
        }
        {
          const size_t c = mesh_.Index(nx - 1, j, k),
                       n = mesh_.Index(nx - 2, j, k);
          if (wx < 0) {
            u_[c] = wx * prof;
            v_[c] = wy * prof;
            w_[c] = 0.0;
          } else {
            u_[c] = u_[n];
            v_[c] = v_[n];
            w_[c] = w_[n];
          }
        }
      }
      for (int i = 0; i < nx; ++i) {
        {
          const size_t c = mesh_.Index(i, 0, k), n = mesh_.Index(i, 1, k);
          if (wy > 0) {
            u_[c] = wx * prof;
            v_[c] = wy * prof;
            w_[c] = 0.0;
          } else {
            u_[c] = u_[n];
            v_[c] = v_[n];
            w_[c] = w_[n];
          }
        }
        {
          const size_t c = mesh_.Index(i, ny - 1, k),
                       n = mesh_.Index(i, ny - 2, k);
          if (wy < 0) {
            u_[c] = wx * prof;
            v_[c] = wy * prof;
            w_[c] = 0.0;
          } else {
            u_[c] = u_[n];
            v_[c] = v_[n];
            w_[c] = w_[n];
          }
        }
      }
    }
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const size_t g = mesh_.Index(i, j, 0);
        u_[g] = v_[g] = w_[g] = 0.0;
        const size_t top = mesh_.Index(i, j, nz - 1);
        const size_t below = mesh_.Index(i, j, nz - 2);
        u_[top] = u_[below];
        v_[top] = v_[below];
        w_[top] = 0.0;
      }
    }
  }

  void ApplyScalarBounds() {
    const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
    const double inflow = bc_.exterior_temp_c;
    double wx, wy;
    WindVector(wx, wy);
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < ny; ++j) {
        t_[mesh_.Index(0, j, k)] =
            wx > 0 ? inflow : t_[mesh_.Index(1, j, k)];
        t_[mesh_.Index(nx - 1, j, k)] =
            wx < 0 ? inflow : t_[mesh_.Index(nx - 2, j, k)];
      }
      for (int i = 0; i < nx; ++i) {
        t_[mesh_.Index(i, 0, k)] =
            wy > 0 ? inflow : t_[mesh_.Index(i, 1, k)];
        t_[mesh_.Index(i, ny - 1, k)] =
            wy < 0 ? inflow : t_[mesh_.Index(i, ny - 2, k)];
      }
    }
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        t_[mesh_.Index(i, j, 0)] = t_[mesh_.Index(i, j, 1)];
        t_[mesh_.Index(i, j, nz - 1)] = t_[mesh_.Index(i, j, nz - 2)];
      }
    }
  }

  void Advect() {
    u0_ = u_;  // the full-field copies the overhaul removed
    v0_ = v_;
    w0_ = w_;
    t0_ = t_;
    const double dt = params_.dt_s;
    const double idx = 1.0 / mesh_.dx(), idy = 1.0 / mesh_.dy(),
                 idz = 1.0 / mesh_.dz();
    const int sx = 1, sy = mesh_.nx(), sz = mesh_.nx() * mesh_.ny();
    ForEachInterior([&](int i, int j, int k) {
      const size_t c = mesh_.Index(i, j, k);
      const double uu = u0_[c], vv = v0_[c], ww = w0_[c];
      auto upwind = [&](const std::vector<double>& f) {
        const double dfx = uu >= 0 ? (f[c] - f[c - sx]) * idx
                                   : (f[c + sx] - f[c]) * idx;
        const double dfy = vv >= 0 ? (f[c] - f[c - sy]) * idy
                                   : (f[c + sy] - f[c]) * idy;
        const double dfz = ww >= 0 ? (f[c] - f[c - sz]) * idz
                                   : (f[c + sz] - f[c]) * idz;
        return uu * dfx + vv * dfy + ww * dfz;
      };
      u_[c] = u0_[c] - dt * upwind(u0_);
      v_[c] = v0_[c] - dt * upwind(v0_);
      w_[c] = w0_[c] - dt * upwind(w0_);
      t_[c] = t0_[c] - dt * upwind(t0_);
    });
  }

  void DiffuseAndForce() {
    u0_ = u_;
    v0_ = v_;
    w0_ = w_;
    t0_ = t_;
    const double dt = params_.dt_s;
    const double cx = 1.0 / (mesh_.dx() * mesh_.dx());
    const double cy = 1.0 / (mesh_.dy() * mesh_.dy());
    const double cz = 1.0 / (mesh_.dz() * mesh_.dz());
    const int sx = 1, sy = mesh_.nx(), sz = mesh_.nx() * mesh_.ny();
    const double nu = params_.eddy_viscosity;
    const double kappa = params_.thermal_diffusivity;
    ForEachInterior([&](int i, int j, int k) {
      const size_t c = mesh_.Index(i, j, k);
      auto lap = [&](const std::vector<double>& f) {
        return cx * (f[c + sx] - 2.0 * f[c] + f[c - sx]) +
               cy * (f[c + sy] - 2.0 * f[c] + f[c - sy]) +
               cz * (f[c + sz] - 2.0 * f[c] + f[c - sz]);
      };
      double un = u0_[c] + dt * nu * lap(u0_);
      double vn = v0_[c] + dt * nu * lap(v0_);
      double wn = w0_[c] + dt * nu * lap(w0_);
      double tn = t0_[c] + dt * kappa * lap(t0_);
      wn += dt * params_.gravity * params_.buoyancy_beta *
            (t0_[c] - bc_.exterior_temp_c);
      const cfd::CellType type = mesh_.TypeAt(c);  // per-cell predicate call
      if (type != cfd::CellType::kFluid) {
        const double cd = type == cfd::CellType::kScreen
                              ? params_.screen_drag
                              : params_.canopy_drag;
        const double speed = std::sqrt(un * un + vn * vn + wn * wn);
        const double damp = 1.0 / (1.0 + dt * cd * speed);
        un *= damp;
        vn *= damp;
        wn *= damp;
        if (type == cfd::CellType::kCanopy) {
          tn += dt * params_.canopy_heat_w * 100.0;
        }
      }
      u_[c] = un;
      v_[c] = vn;
      w_[c] = wn;
      t_[c] = tn;
    });
    ApplyVelocityBounds();
    ApplyScalarBounds();
  }

  void SolvePressure(cfd::StepStats& stats) {
    const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
    const double dt = params_.dt_s;
    const double idx2 = 1.0 / (2.0 * mesh_.dx()),
                 idy2 = 1.0 / (2.0 * mesh_.dy()),
                 idz2 = 1.0 / (2.0 * mesh_.dz());
    const int sx = 1, sy = nx, sz = nx * ny;
    ForEachInterior([&](int i, int j, int k) {
      const size_t c = mesh_.Index(i, j, k);
      div_[c] = ((u_[c + sx] - u_[c - sx]) * idx2 +
                 (v_[c + sy] - v_[c - sy]) * idy2 +
                 (w_[c + sz] - w_[c - sz]) * idz2) /
                dt;
    });
    double wx, wy;
    WindVector(wx, wy);
    const double cx = 1.0 / (mesh_.dx() * mesh_.dx());
    const double cy = 1.0 / (mesh_.dy() * mesh_.dy());
    const double cz = 1.0 / (mesh_.dz() * mesh_.dz());
    const double omega = params_.poisson_omega;
    for (int iter = 0; iter < params_.poisson_iters; ++iter) {
      for (int color = 0; color < 2; ++color) {
        for (int k = 1; k < nz - 1; ++k) {
          for (int j = 1; j < ny - 1; ++j) {
            for (int i = 1; i < nx - 1; ++i) {
              if (((i + j + k) & 1) != color) continue;
              const size_t c = mesh_.Index(i, j, k);
              double ap = 0.0, sum = 0.0;
              if (i > 1) {
                ap += cx;
                sum += cx * p_[c - sx];
              } else if (wx <= 0) {
                ap += cx;
              }
              if (i < nx - 2) {
                ap += cx;
                sum += cx * p_[c + sx];
              } else if (wx >= 0) {
                ap += cx;
              }
              if (j > 1) {
                ap += cy;
                sum += cy * p_[c - sy];
              } else if (wy <= 0) {
                ap += cy;
              }
              if (j < ny - 2) {
                ap += cy;
                sum += cy * p_[c + sy];
              } else if (wy >= 0) {
                ap += cy;
              }
              if (k > 1) {
                ap += cz;
                sum += cz * p_[c - sz];
              }
              if (k < nz - 2) {
                ap += cz;
                sum += cz * p_[c + sz];
              }
              if (ap <= 0.0) continue;
              const double p_gs = (sum - div_[c]) / ap;
              p_[c] = (1.0 - omega) * p_[c] + omega * p_gs;
            }
          }
        }
      }
    }
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < ny; ++j) {
        p_[mesh_.Index(0, j, k)] = wx > 0 ? p_[mesh_.Index(1, j, k)] : 0.0;
        p_[mesh_.Index(nx - 1, j, k)] =
            wx < 0 ? p_[mesh_.Index(nx - 2, j, k)] : 0.0;
      }
      for (int i = 0; i < nx; ++i) {
        p_[mesh_.Index(i, 0, k)] = wy > 0 ? p_[mesh_.Index(i, 1, k)] : 0.0;
        p_[mesh_.Index(i, ny - 1, k)] =
            wy < 0 ? p_[mesh_.Index(i, ny - 2, k)] : 0.0;
      }
    }
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        p_[mesh_.Index(i, j, 0)] = p_[mesh_.Index(i, j, 1)];
        p_[mesh_.Index(i, j, nz - 1)] = p_[mesh_.Index(i, j, nz - 2)];
      }
    }
    double res = 0.0;
    for (int k = 1; k < nz - 1; ++k) {
      for (int j = 1; j < ny - 1; ++j) {
        for (int i = 1; i < nx - 1; ++i) {
          const size_t c = mesh_.Index(i, j, k);
          const double lap = cx * (p_[c + sx] - 2 * p_[c] + p_[c - sx]) +
                             cy * (p_[c + sy] - 2 * p_[c] + p_[c - sy]) +
                             cz * (p_[c + sz] - 2 * p_[c] + p_[c - sz]);
          res = std::max(res, std::abs(lap - div_[c]));
        }
      }
    }
    stats.poisson_residual = res;
  }

  void Project() {
    const double dt = params_.dt_s;
    const double idx2 = 1.0 / (2.0 * mesh_.dx()),
                 idy2 = 1.0 / (2.0 * mesh_.dy()),
                 idz2 = 1.0 / (2.0 * mesh_.dz());
    const int sx = 1, sy = mesh_.nx(), sz = mesh_.nx() * mesh_.ny();
    ForEachInterior([&](int i, int j, int k) {
      const size_t c = mesh_.Index(i, j, k);
      u_[c] -= dt * (p_[c + sx] - p_[c - sx]) * idx2;
      v_[c] -= dt * (p_[c + sy] - p_[c - sy]) * idy2;
      w_[c] -= dt * (p_[c + sz] - p_[c - sz]) * idz2;
    });
    ApplyVelocityBounds();
  }

  const cfd::Mesh& mesh_;
  cfd::SolverParams params_;
  cfd::Boundary bc_;
  std::vector<double> u_, v_, w_, p_, t_;
  std::vector<double> u0_, v0_, w0_, t0_;
  std::vector<double> div_;
};

}  // namespace legacy

// ---------------------------------------------------------------------------
// Measurement harness
// ---------------------------------------------------------------------------

constexpr const char* kKernels[] = {"advect",   "diffuse_force",  "sor",
                                    "residual", "project",        "max_divergence"};

struct RunResult {
  unsigned threads = 1;
  double step_ms = 0.0;
  double cells_per_sec = 0.0;
  double max_divergence = 0.0;
  // Parallel arrays over kKernels.
  std::vector<double> kernel_total_ms;
  std::vector<uint64_t> kernel_calls;
};

cfd::Boundary BenchBoundary() {
  cfd::Boundary bc;
  bc.wind_speed_ms = 4.0;
  bc.wind_dir_deg = 225.0;
  bc.exterior_temp_c = 21.0;
  bc.interior_temp_c = 26.0;
  return bc;
}

RunResult TimeSolver(const cfd::Mesh& mesh, int warmup, int steps,
                     unsigned threads) {
  ThreadPool pool(threads);
  cfd::Solver solver(mesh, cfd::SolverParams{},
                     threads > 1 ? &pool : nullptr);
  obs::MetricsRegistry registry;
  obs::KernelTimer timer(&registry, &NowUs);
  solver.set_kernel_timer(&timer);
  solver.Initialize(BenchBoundary());
  solver.Run(warmup);

  // Count only the timed window: snapshot per-kernel totals around it.
  std::vector<double> ms_before, ms_after;
  std::vector<uint64_t> calls_before, calls_after;
  for (const char* k : kKernels) {
    ms_before.push_back(timer.TotalMs(k));
    calls_before.push_back(timer.Count(k));
  }
  const int64_t t0 = NowUs();
  const cfd::StepStats last = solver.Run(steps);
  const int64_t t1 = NowUs();
  for (const char* k : kKernels) {
    ms_after.push_back(timer.TotalMs(k));
    calls_after.push_back(timer.Count(k));
  }

  RunResult r;
  r.threads = threads;
  const double secs = static_cast<double>(t1 - t0) / 1e6;
  r.step_ms = secs / steps * 1e3;
  r.cells_per_sec =
      secs > 0 ? steps * static_cast<double>(mesh.cell_count()) / secs : 0.0;
  r.max_divergence = last.max_divergence;
  for (size_t k = 0; k < std::size(kKernels); ++k) {
    r.kernel_total_ms.push_back(ms_after[k] - ms_before[k]);
    r.kernel_calls.push_back(calls_after[k] - calls_before[k]);
  }
  return r;
}

double TimeLegacy(const cfd::Mesh& mesh, int warmup, int steps,
                  double& step_ms, double& max_div) {
  legacy::Solver solver(mesh, cfd::SolverParams{});
  solver.Initialize(BenchBoundary());
  solver.Run(warmup);
  const int64_t t0 = NowUs();
  solver.Run(steps);
  const int64_t t1 = NowUs();
  const double secs = static_cast<double>(t1 - t0) / 1e6;
  step_ms = secs / steps * 1e3;
  max_div = solver.MaxDivergence();
  return secs > 0 ? steps * static_cast<double>(mesh.cell_count()) / secs
                  : 0.0;
}

int Fail(const std::string& msg) {
  std::cerr << "bench_cfd_kernels: " << msg << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* const kUsage =
      " (usage: [--smoke] [--out PATH] [--steps N] [--threads N])";
  bench::BenchFlags flags;
  flags.out_path = "BENCH_cfd.json";
  if (!bench::TakeBenchFlags(argc, argv, flags)) {
    return Fail(std::string("--out needs a path") + kUsage);
  }
  const bool smoke = flags.smoke;
  const std::string& out_path = flags.out_path;
  int steps_override = 0;
  unsigned threads_override = 0;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--steps" && a + 1 < argc) {
      steps_override = std::atoi(argv[++a]);
    } else if (arg == "--threads" && a + 1 < argc) {
      threads_override = static_cast<unsigned>(std::atoi(argv[++a]));
    } else {
      return Fail("unknown argument: " + arg + kUsage);
    }
  }

  cfd::MeshParams mp;
  if (smoke) {
    mp.nx = 20;
    mp.ny = 16;
    mp.nz = 8;
  } else {
    mp.nx = 48;
    mp.ny = 40;
    mp.nz = 12;
  }
  cfd::Mesh mesh(mp);
  const int warmup = smoke ? 1 : 3;
  int steps = smoke ? 4 : 30;
  if (steps_override > 0) steps = steps_override;

  unsigned max_threads = threads_override > 0
                             ? threads_override
                             : std::max(1u, std::thread::hardware_concurrency());
  if (smoke) max_threads = std::min(max_threads, 2u);

  // Legacy baseline: single thread, the figure the overhaul is judged on.
  double legacy_step_ms = 0.0, legacy_max_div = 0.0;
  const double legacy_cps =
      TimeLegacy(mesh, warmup, steps, legacy_step_ms, legacy_max_div);

  // Thread sweep: 1, 2, 4, ... up to the hardware (or requested) width.
  std::vector<RunResult> runs;
  for (unsigned t = 1; t <= max_threads; t *= 2) {
    runs.push_back(TimeSolver(mesh, warmup, steps, t));
    if (t == max_threads) break;
    if (t * 2 > max_threads) {
      runs.push_back(TimeSolver(mesh, warmup, steps, max_threads));
      break;
    }
  }

  const double single_speedup =
      legacy_cps > 0 ? runs.front().cells_per_sec / legacy_cps : 0.0;
  // Both solvers integrate the same physics: their post-projection residual
  // divergence must agree closely or the comparison is meaningless.
  const double agreement =
      std::abs(runs.front().max_divergence - legacy_max_div);

  Table per_thread({"Threads", "Step (ms)", "Mcells/s", "vs legacy"});
  for (const RunResult& r : runs) {
    per_thread.AddRow({Table::Num(r.threads, 0), Table::Num(r.step_ms, 3),
                       Table::Num(r.cells_per_sec / 1e6, 2),
                       Table::Num(legacy_cps > 0 ? r.cells_per_sec / legacy_cps
                                                 : 0.0,
                                  2)});
  }
  std::cout << "Legacy (copy-based) solver: " << legacy_step_ms
            << " ms/step, " << legacy_cps / 1e6 << " Mcells/s\n";
  per_thread.Print(std::cout, "Overhauled solver: full Step() throughput");

  Table per_kernel({"Kernel", "Total (ms)", "Calls", "Mean (ms)"});
  const RunResult& r1 = runs.front();
  for (size_t k = 0; k < std::size(kKernels); ++k) {
    const uint64_t calls = r1.kernel_calls[k];
    per_kernel.AddRow(
        {kKernels[k], Table::Num(r1.kernel_total_ms[k], 3),
         Table::Num(static_cast<double>(calls), 0),
         Table::Num(calls > 0 ? r1.kernel_total_ms[k] / calls : 0.0, 4)});
  }
  per_kernel.Print(std::cout, "Per-kernel breakdown (1 thread)");
  std::cout << "Single-thread speedup vs legacy: " << single_speedup
            << "x (max-divergence agreement " << agreement << ")\n";

  std::ofstream out(out_path);
  if (!out) return Fail("cannot open " + out_path + " for writing");
  bench::JsonWriter jw(out);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-cfd-v1");
  jw.Field("smoke", smoke);
  jw.Key("mesh");
  jw.BeginObject();
  jw.Field("nx", mesh.nx());
  jw.Field("ny", mesh.ny());
  jw.Field("nz", mesh.nz());
  jw.Field("cells", static_cast<uint64_t>(mesh.cell_count()));
  jw.EndObject();
  jw.Field("steps", steps);
  jw.Field("warmup_steps", warmup);
  jw.Key("legacy");
  jw.BeginObject();
  jw.Field("threads", 1);
  jw.Field("step_ms", legacy_step_ms);
  jw.Field("cells_per_sec", legacy_cps);
  jw.EndObject();
  jw.Key("runs");
  jw.BeginArray();
  for (const RunResult& r : runs) {
    jw.BeginObject();
    jw.Field("threads", r.threads);
    jw.Field("step_ms", r.step_ms);
    jw.Field("cells_per_sec", r.cells_per_sec);
    jw.Field("speedup_vs_legacy",
             legacy_cps > 0 ? r.cells_per_sec / legacy_cps : 0.0);
    jw.Key("kernels");
    jw.BeginArray();
    for (size_t k = 0; k < std::size(kKernels); ++k) {
      jw.BeginObject();
      jw.Field("name", kKernels[k]);
      jw.Field("total_ms", r.kernel_total_ms[k]);
      jw.Field("calls", r.kernel_calls[k]);
      jw.Field("mean_ms", r.kernel_calls[k] > 0
                              ? r.kernel_total_ms[k] / r.kernel_calls[k]
                              : 0.0);
      jw.EndObject();
    }
    jw.EndArray();
    jw.EndObject();
  }
  jw.EndArray();
  jw.Field("single_thread_speedup_vs_legacy", single_speedup);
  jw.Field("max_divergence_agreement", agreement);
  jw.EndObject();
  if (!jw.Complete()) return Fail("internal error: unbalanced JSON");
  out << "\n";
  out.close();
  if (!out) return Fail("write to " + out_path + " failed");
  std::cout << "Data written to " << out_path << "\n";
  return 0;
}
