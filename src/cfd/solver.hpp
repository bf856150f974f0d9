// Incompressible airflow + heat-transfer solver for the screen house.
//
// Substitutes the paper's OpenFOAM case with the same physics class:
// incompressible Navier-Stokes with a Boussinesq buoyancy term, a scalar
// temperature transport equation, and Darcy-Forchheimer drag in the porous
// screen and canopy cells. Time integration is Chorin projection:
//
//   1. explicit first-order-upwind advection of (u, v, w, T);
//   2. explicit diffusion with an eddy viscosity;
//   3. buoyancy source on w, porous drag (implicit per-cell), canopy heat;
//   4. pressure Poisson solve (red-black SOR, thread-parallel) so the
//      projected field is discretely divergence-free;
//   5. velocity correction.
//
// Boundary conditions come from the telemetry: exterior wind vector and
// temperature define inflow Dirichlet faces (any lateral face whose inward
// normal opposes the wind), with zero-gradient outflow elsewhere, no-slip
// ground, and free-slip top.
//
// Hot-path layout (see DESIGN.md "CFD hot path"): the transported fields
// live in a double-buffered SoA set — Advect writes the previous buffer
// from the current one and DiffuseAndForce writes it back, instead of
// copying five full vectors per step, and each stage ends with one fused
// boundary sweep. Per-cell type, drag, and heat-source arrays are
// precomputed so no geometry predicate runs inside a kernel.
//
// The solver runs on a ThreadPool: each Run(n) is one parallel region.
// Every participant keeps a fixed share of the interior (j, k) rows for all
// n steps and the participants meet at a spin barrier between phases;
// participant 0 alone runs the boundary sweeps between them and folds the
// per-participant residual and divergence maxima. Below a small-grid
// cutoff the same body runs inline on the calling thread, and the fields
// and stats are bitwise the same either way. Cell-update counts are
// exposed so the HPC performance model can be calibrated against real
// measured per-cell cost. A KernelTimer can be attached to record
// per-kernel times into a metrics registry (clock injected by the caller;
// detached timing costs one pointer test).
#pragma once

#include <cstdint>
#include <vector>

#include "cfd/mesh.hpp"
#include "common/threadpool.hpp"

namespace xg::obs {
class KernelTimer;
}  // namespace xg::obs

namespace xg::cfd {

struct Boundary {
  double wind_speed_ms = 3.0;
  double wind_dir_deg = 270.0;  ///< meteorological: direction wind comes FROM
  double exterior_temp_c = 22.0;
  double interior_temp_c = 24.0;  ///< initial interior temperature
};

struct SolverParams {
  double dt_s = 0.20;
  double eddy_viscosity = 0.75;     ///< m^2/s, turbulent closure stand-in
  double thermal_diffusivity = 0.9;
  double screen_drag = 2.2;         ///< Forchheimer coefficient, 1/m
  double canopy_drag = 0.35;
  double canopy_heat_w = 0.004;     ///< K/s volumetric solar heating
  double buoyancy_beta = 1.0 / 300.0;  ///< 1/K (Boussinesq)
  double gravity = 9.81;
  int poisson_iters = 60;
  double poisson_omega = 1.7;       ///< SOR relaxation
};

struct StepStats {
  double max_divergence = 0.0;    ///< post-projection residual divergence
  double poisson_residual = 0.0;
  uint64_t cell_updates = 0;
};

/// SoA buffer set for the transported fields (u, v, w, T). The solver
/// holds two and ping-pongs between them within a step, the zero-copy
/// replacement for the old "copy current into scratch, then overwrite
/// current" stepping.
struct Fields {
  std::vector<double> u, v, w, t;

  void Assign(size_t n, double value = 0.0) {
    u.assign(n, value);
    v.assign(n, value);
    w.assign(n, value);
    t.assign(n, value);
  }
};

class Solver {
 public:
  /// `pool` may be null for serial execution.
  Solver(const Mesh& mesh, SolverParams params, ThreadPool* pool = nullptr);

  void Initialize(const Boundary& bc);
  /// Run(1).
  StepStats Step();
  /// Advance `steps` steps as one parallel region (inline when serial or
  /// below the small-grid cutoff); returns the last step's stats.
  StepStats Run(int steps);

  const Mesh& mesh() const { return mesh_; }
  const Boundary& boundary() const { return bc_; }

  /// Attach (or detach with nullptr) a per-kernel timer; see
  /// obs::KernelTimer. The timer must outlive the solver or be detached.
  void set_kernel_timer(obs::KernelTimer* timer) { timer_ = timer; }

  // Field access (cell-centered, size = mesh.cell_count()).
  const std::vector<double>& u() const { return cur_.u; }
  const std::vector<double>& v() const { return cur_.v; }
  const std::vector<double>& w() const { return cur_.w; }
  const std::vector<double>& temperature() const { return cur_.t; }
  const std::vector<double>& pressure() const { return p_; }

  /// |velocity| at a cell.
  double SpeedAt(int i, int j, int k) const;
  /// |velocity| at a physical location (nearest cell).
  double SpeedAtPoint(double x, double y, double z) const;
  double TemperatureAtPoint(double x, double y, double z) const;

  /// Mean air speed over house-interior cells — the scalar the digital
  /// twin compares against interior anemometer readings.
  double InteriorMeanSpeed() const;
  double InteriorMeanTemperature() const;

  /// Max |div u| over interior cells (invariant checked by tests).
  double MaxDivergence() const;

  /// Interior-cell updates performed so far: each Advect / DiffuseAndForce
  /// / Project pass and each SOR iteration counts every interior cell once
  /// (boundary cells are applied, not solved, and are excluded — this is
  /// the honest work figure the HPC performance model calibrates against).
  uint64_t total_cell_updates() const { return total_updates_; }

  /// Interior cells updated by one kernel pass: (nx-2)(ny-2)(nz-2).
  uint64_t interior_cell_count() const { return interior_cells_; }

 private:
  /// One fused boundary sweep: velocity faces and, when `with_scalar`,
  /// the temperature faces in the same traversal.
  void ApplyBounds(Fields& f, bool with_scalar) const;
  /// The single-pass kernels over interior rows [rb, re) of ForRows:
  /// Advect writes prev_ from cur_, DiffuseAndForce writes cur_ from prev_.
  void Advect(size_t rb, size_t re);
  void DiffuseAndForce(size_t rb, size_t re);
  void Project(size_t rb, size_t re);
  /// Max |Ap - b| and max |div u| over interior rows [rb, re).
  double PoissonResidual(size_t rb, size_t re) const;
  double MaxDivergence(size_t rb, size_t re) const;
  /// Pressure RHS and every red-black sweep over this participant's rows.
  void SolvePressure(const Region& region);
  /// Mirror pressure onto boundary cells for the gradient step.
  void MirrorPressure();
  /// Inward wind components (+x east-to-west etc.) from the boundary.
  void WindVector(double& wx, double& wy) const;

  /// Run fn(first, end) over the interior cells of rows [rb, re) of the
  /// single-pass kernels. Rows are numbered j-fastest, so [0, rows) is the
  /// k-outer, j-inner serial traversal.
  template <typename Fn>
  void ForRows(size_t rb, size_t re, Fn&& fn) const;

  const Mesh& mesh_;
  SolverParams params_;
  ThreadPool* pool_;
  obs::KernelTimer* timer_ = nullptr;
  Boundary bc_;
  Fields cur_, prev_;
  std::vector<double> p_, div_;
  /// Per-cell porous drag coefficient (0 for fluid cells) and per-step
  /// canopy heat increment, baked from mesh cell types and params.
  std::vector<double> cell_drag_, cell_heat_;
  uint64_t interior_cells_ = 0;
  /// Interior (j, k) rows: (ny-2)(nz-2), or 0 without interior cells.
  size_t interior_rows_ = 0;
  uint64_t total_updates_ = 0;
};

}  // namespace xg::cfd
