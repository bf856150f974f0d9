#include "cfd/solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "obs/kerneltimer.hpp"

// Kernels read through restrict-qualified pointers: the write buffer never
// aliases the read buffer (they are distinct Fields), which lets the
// compiler keep stencil neighborhoods in registers across the row.
#if defined(__GNUC__) || defined(__clang__)
#define XG_RESTRICT __restrict__
#else
#define XG_RESTRICT
#endif

namespace xg::cfd {

namespace {
constexpr double kPi = 3.14159265358979323846;

/// Atmospheric boundary-layer power-law profile, normalized to 1 at 10 m.
double WindProfile(double z_m) {
  const double z = std::max(0.5, z_m);
  return std::max(0.3, std::pow(z / 10.0, 0.14));
}

/// Below this many interior cells a run stays on the calling thread even
/// with a pool attached: a colour sweep is then ~20 us of work or less, and
/// splitting it no longer pays for the barrier rounds and the skew between
/// workers (on a 4-core VM a 2-worker pressure solve broke even near 6k
/// cells and lost at 4k; the 48x40x12 fabric mesh has 17.5k).
constexpr uint64_t kMinPooledCells = 8192;

/// One shell-row span of a red-black sweep: cells first, first + 2, ...,
/// up to last, all with interior x neighbours, and a diagonal `ap` that is
/// constant along the row.
struct ShellRow {
  double* p;
  const double* div;
  size_t first, last, sy, sz;
  double cx, cy, cz, ap, omega;
};

/// Which y/z neighbours of a shell row are interior cells.
constexpr unsigned kShellYm = 1, kShellYp = 2, kShellZm = 4, kShellZp = 8;

/// The general-cell update for a shell-row span with its neighbour set
/// fixed at compile time: the same accumulation order and the same
/// (sum - div) / ap and (1 - omega) p + omega p_gs arithmetic, so results
/// are bit-identical to the per-cell form, without its per-cell branches
/// and index arithmetic.
template <unsigned kMask>
void ShellSpan(const ShellRow& r) {
  double* XG_RESTRICT p = r.p;
  const double* XG_RESTRICT div = r.div;
  for (size_t c = r.first; c <= r.last; c += 2) {
    double sum = 0.0;
    sum += r.cx * p[c - 1];
    sum += r.cx * p[c + 1];
    if constexpr ((kMask & kShellYm) != 0) sum += r.cy * p[c - r.sy];
    if constexpr ((kMask & kShellYp) != 0) sum += r.cy * p[c + r.sy];
    if constexpr ((kMask & kShellZm) != 0) sum += r.cz * p[c - r.sz];
    if constexpr ((kMask & kShellZp) != 0) sum += r.cz * p[c + r.sz];
    const double p_gs = (sum - div[c]) / r.ap;
    p[c] = (1.0 - r.omega) * p[c] + r.omega * p_gs;
  }
}

using ShellSpanFn = void (*)(const ShellRow&);

template <unsigned... kMasks>
constexpr std::array<ShellSpanFn, sizeof...(kMasks)> MakeShellSpans(
    std::integer_sequence<unsigned, kMasks...>) {
  return {&ShellSpan<kMasks>...};
}

/// ShellSpan for each of the 16 neighbour sets, indexed by mask.
constexpr std::array<ShellSpanFn, 16> kShellSpans =
    MakeShellSpans(std::make_integer_sequence<unsigned, 16>{});
}  // namespace

Solver::Solver(const Mesh& mesh, SolverParams params, ThreadPool* pool)
    : mesh_(mesh), params_(params), pool_(pool) {
  const size_t n = mesh_.cell_count();
  cur_.Assign(n);
  prev_.Assign(n);
  p_.assign(n, 0.0);
  div_.assign(n, 0.0);

  // Bake the porous-media terms into per-cell arrays so the diffusion
  // kernel never consults geometry: drag coefficient per cell and the
  // per-step canopy heat increment (K per step scaling).
  cell_drag_.assign(n, 0.0);
  cell_heat_.assign(n, 0.0);
  const std::vector<CellType>& types = mesh_.types();
  for (size_t c = 0; c < n; ++c) {
    if (types[c] == CellType::kScreen) {
      cell_drag_[c] = params_.screen_drag;
    } else if (types[c] == CellType::kCanopy) {
      cell_drag_[c] = params_.canopy_drag;
      cell_heat_[c] = params_.dt_s * params_.canopy_heat_w * 100.0;
    }
  }
  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  interior_cells_ = (nx > 2 && ny > 2 && nz > 2)
                        ? static_cast<uint64_t>(nx - 2) *
                              static_cast<uint64_t>(ny - 2) *
                              static_cast<uint64_t>(nz - 2)
                        : 0;
  interior_rows_ = interior_cells_ == 0 ? 0
                                        : static_cast<size_t>(ny - 2) *
                                              static_cast<size_t>(nz - 2);
}

void Solver::WindVector(double& wx, double& wy) const {
  const double theta = bc_.wind_dir_deg * kPi / 180.0;
  // Meteorological convention: direction the wind comes FROM, clockwise
  // from north; +x east, +y north.
  wx = -bc_.wind_speed_ms * std::sin(theta);
  wy = -bc_.wind_speed_ms * std::cos(theta);
}

void Solver::Initialize(const Boundary& bc) {
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
        cur_.u[c] = inside ? 0.0 : wx * prof;
        cur_.v[c] = inside ? 0.0 : wy * prof;
        cur_.w[c] = 0.0;
        p_[c] = 0.0;
        cur_.t[c] = inside ? bc.interior_temp_c : bc.exterior_temp_c;
      }
    }
  }
  ApplyBounds(cur_, true);
}

template <typename Fn>
void Solver::ForRows(size_t rb, size_t re, Fn&& fn) const {
  if (rb == re) return;
  const int ny = mesh_.ny();
  const size_t row_len = static_cast<size_t>(ny - 2);
  const size_t width = static_cast<size_t>(mesh_.nx() - 2);
  int j = 1 + static_cast<int>(rb % row_len);
  int k = 1 + static_cast<int>(rb / row_len);
  for (size_t r = rb; r < re; ++r) {
    const size_t first = mesh_.Index(1, j, k);
    fn(first, first + width);
    if (++j == ny - 1) {
      j = 1;
      ++k;
    }
  }
}

void Solver::ApplyBounds(Fields& f, bool with_scalar) const {
  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  double wx, wy;
  WindVector(wx, wy);
  const double t_in = bc_.exterior_temp_c;
  double* XG_RESTRICT u = f.u.data();
  double* XG_RESTRICT v = f.v.data();
  double* XG_RESTRICT w = f.w.data();
  double* XG_RESTRICT t = f.t.data();

  // Lateral faces: Dirichlet inflow where the wind enters, zero-gradient
  // outflow elsewhere — one fused sweep over all transported fields.
  for (int k = 0; k < nz; ++k) {
    const double prof = WindProfile(mesh_.Z(k));
    for (int j = 0; j < ny; ++j) {
      {  // x-min face (inward normal +x)
        const size_t c = mesh_.Index(0, j, k), n = mesh_.Index(1, j, k);
        if (wx > 0) {
          u[c] = wx * prof;
          v[c] = wy * prof;
          w[c] = 0.0;
          if (with_scalar) t[c] = t_in;
        } else {
          u[c] = u[n];
          v[c] = v[n];
          w[c] = w[n];
          if (with_scalar) t[c] = t[n];
        }
      }
      {  // x-max face (inward normal -x)
        const size_t c = mesh_.Index(nx - 1, j, k), n = mesh_.Index(nx - 2, j, k);
        if (wx < 0) {
          u[c] = wx * prof;
          v[c] = wy * prof;
          w[c] = 0.0;
          if (with_scalar) t[c] = t_in;
        } else {
          u[c] = u[n];
          v[c] = v[n];
          w[c] = w[n];
          if (with_scalar) t[c] = t[n];
        }
      }
    }
    for (int i = 0; i < nx; ++i) {
      {  // y-min face (inward normal +y)
        const size_t c = mesh_.Index(i, 0, k), n = mesh_.Index(i, 1, k);
        if (wy > 0) {
          u[c] = wx * prof;
          v[c] = wy * prof;
          w[c] = 0.0;
          if (with_scalar) t[c] = t_in;
        } else {
          u[c] = u[n];
          v[c] = v[n];
          w[c] = w[n];
          if (with_scalar) t[c] = t[n];
        }
      }
      {  // y-max face (inward normal -y)
        const size_t c = mesh_.Index(i, ny - 1, k), n = mesh_.Index(i, ny - 2, k);
        if (wy < 0) {
          u[c] = wx * prof;
          v[c] = wy * prof;
          w[c] = 0.0;
          if (with_scalar) t[c] = t_in;
        } else {
          u[c] = u[n];
          v[c] = v[n];
          w[c] = w[n];
          if (with_scalar) t[c] = t[n];
        }
      }
    }
  }
  // Ground: no-slip, zero-gradient scalar. Top: free-slip (zero normal
  // velocity), zero-gradient scalar.
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const size_t g = mesh_.Index(i, j, 0);
      const size_t above = mesh_.Index(i, j, 1);
      u[g] = v[g] = w[g] = 0.0;
      const size_t top = mesh_.Index(i, j, nz - 1);
      const size_t below = mesh_.Index(i, j, nz - 2);
      u[top] = u[below];
      v[top] = v[below];
      w[top] = 0.0;
      if (with_scalar) {
        t[g] = t[above];
        t[top] = t[below];
      }
    }
  }
}

void Solver::Advect(size_t rb, size_t re) {
  const double dt = params_.dt_s;
  const double idx = 1.0 / mesh_.dx(), idy = 1.0 / mesh_.dy(),
               idz = 1.0 / mesh_.dz();
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double* XG_RESTRICT u0 = cur_.u.data();
  const double* XG_RESTRICT v0 = cur_.v.data();
  const double* XG_RESTRICT w0 = cur_.w.data();
  const double* XG_RESTRICT t0 = cur_.t.data();
  double* XG_RESTRICT u = prev_.u.data();
  double* XG_RESTRICT v = prev_.v.data();
  double* XG_RESTRICT w = prev_.w.data();
  double* XG_RESTRICT t = prev_.t.data();

  ForRows(rb, re, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      const double uu = u0[c], vv = v0[c], ww = w0[c];
      const auto upwind = [&](const double* XG_RESTRICT fld) {
        // First-order upwind derivative along each axis.
        const double dfx = uu >= 0 ? (fld[c] - fld[c - sx]) * idx
                                   : (fld[c + sx] - fld[c]) * idx;
        const double dfy = vv >= 0 ? (fld[c] - fld[c - sy]) * idy
                                   : (fld[c + sy] - fld[c]) * idy;
        const double dfz = ww >= 0 ? (fld[c] - fld[c - sz]) * idz
                                   : (fld[c + sz] - fld[c]) * idz;
        return uu * dfx + vv * dfy + ww * dfz;
      };
      u[c] = u0[c] - dt * upwind(u0);
      v[c] = v0[c] - dt * upwind(v0);
      w[c] = w0[c] - dt * upwind(w0);
      t[c] = t0[c] - dt * upwind(t0);
    }
  });
}

void Solver::DiffuseAndForce(size_t rb, size_t re) {
  const double dt = params_.dt_s;
  const double cx = 1.0 / (mesh_.dx() * mesh_.dx());
  const double cy = 1.0 / (mesh_.dy() * mesh_.dy());
  const double cz = 1.0 / (mesh_.dz() * mesh_.dz());
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double dtnu = dt * params_.eddy_viscosity;
  const double dtkappa = dt * params_.thermal_diffusivity;
  const double gbeta = dt * params_.gravity * params_.buoyancy_beta;
  const double t_ext = bc_.exterior_temp_c;
  const double* XG_RESTRICT u0 = prev_.u.data();
  const double* XG_RESTRICT v0 = prev_.v.data();
  const double* XG_RESTRICT w0 = prev_.w.data();
  const double* XG_RESTRICT t0 = prev_.t.data();
  double* XG_RESTRICT u = cur_.u.data();
  double* XG_RESTRICT v = cur_.v.data();
  double* XG_RESTRICT w = cur_.w.data();
  double* XG_RESTRICT t = cur_.t.data();
  const double* XG_RESTRICT drag = cell_drag_.data();
  const double* XG_RESTRICT heat = cell_heat_.data();
  const CellType* XG_RESTRICT type = mesh_.types().data();

  ForRows(rb, re, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      const auto lap = [&](const double* XG_RESTRICT fld) {
        return cx * (fld[c + sx] - 2.0 * fld[c] + fld[c - sx]) +
               cy * (fld[c + sy] - 2.0 * fld[c] + fld[c - sy]) +
               cz * (fld[c + sz] - 2.0 * fld[c] + fld[c - sz]);
      };
      double un = u0[c] + dtnu * lap(u0);
      double vn = v0[c] + dtnu * lap(v0);
      double wn = w0[c] + dtnu * lap(w0);
      double tn = t0[c] + dtkappa * lap(t0);

      // Boussinesq buoyancy relative to the exterior air temperature.
      wn += gbeta * (t0[c] - t_ext);

      // Porous drag (implicit per cell: unconditionally stable) and
      // canopy heat, both from the precomputed per-cell arrays.
      if (type[c] != CellType::kFluid) {
        const double cd = drag[c];
        const double speed = std::sqrt(un * un + vn * vn + wn * wn);
        const double damp = 1.0 / (1.0 + dt * cd * speed);
        un *= damp;
        vn *= damp;
        wn *= damp;
        tn += heat[c];
      }
      u[c] = un;
      v[c] = vn;
      w[c] = wn;
      t[c] = tn;
    }
  });
}

void Solver::SolvePressure(const Region& region) {
  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  const double dt = params_.dt_s;
  const double idx2 = 1.0 / (2.0 * mesh_.dx()), idy2 = 1.0 / (2.0 * mesh_.dy()),
               idz2 = 1.0 / (2.0 * mesh_.dz());
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double cx = 1.0 / (mesh_.dx() * mesh_.dx());
  const double cy = 1.0 / (mesh_.dy() * mesh_.dy());
  const double cz = 1.0 / (mesh_.dz() * mesh_.dz());
  const double omega = params_.poisson_omega;
  double wx, wy;
  WindVector(wx, wy);
  double* XG_RESTRICT p = p_.data();
  double* XG_RESTRICT div = div_.data();

  // Red-black SOR. Outflow lateral faces carry Dirichlet p = 0 ghosts (an
  // all-Neumann problem would be singular); inflow, ground, and top faces
  // are Neumann. Cells whose six neighbors are all interior share one
  // constant diagonal, so the bulk of each sweep runs a branch-free
  // stride-2 span multiplying by the precomputed reciprocal diagonal.
  // Shell rows (next to a y or z face, or every row when nx < 6) run the
  // row-constant span (ShellSpan) with the diagonal and neighbour set of
  // the row; only the two row ends take the general wind-dependent form
  // (where the division also guards ap == 0).
  const double ap_core = cx + cx + cy + cy + cz + cz;
  const double inv_ap_core = 1.0 / ap_core;
  const auto general_cell = [&](int i, int j, int k) {
    const size_t c = mesh_.Index(i, j, k);
    double ap = 0.0, sum = 0.0;
    // x- neighbor
    if (i > 1) { ap += cx; sum += cx * p[c - sx]; }
    else if (wx <= 0) { ap += cx; }  // Dirichlet ghost p=0 (outflow)
    if (i < nx - 2) { ap += cx; sum += cx * p[c + sx]; }
    else if (wx >= 0) { ap += cx; }
    if (j > 1) { ap += cy; sum += cy * p[c - sy]; }
    else if (wy <= 0) { ap += cy; }
    if (j < ny - 2) { ap += cy; sum += cy * p[c + sy]; }
    else if (wy >= 0) { ap += cy; }
    if (k > 1) { ap += cz; sum += cz * p[c - sz]; }
    if (k < nz - 2) { ap += cz; sum += cz * p[c + sz]; }
    if (ap <= 0.0) return;
    const double p_gs = (sum - div[c]) / ap;
    p[c] = (1.0 - omega) * p[c] + omega * p_gs;
  };
  // One colour's cells of row (j, k): those with (i & 1) == par.
  const auto sweep_row = [&](int j, int k, int color) {
    const int par = (color ^ ((j + k) & 1)) & 1;
    if (par == 1) general_cell(1, j, k);
    const size_t row = mesh_.Index(0, j, k);
    const size_t first = row + 2 + static_cast<size_t>(par);
    const size_t last = row + static_cast<size_t>(nx - 3);
    if (nx < 6 || k == 1 || k == nz - 2 || j == 1 || j == ny - 2) {
      // The span cells' x neighbours are interior; the row fixes which
      // y/z neighbours are, and the diagonal accumulates them in
      // general_cell's order so every update is bit-identical to it.
      double ap = 0.0;
      ap += cx;
      ap += cx;
      if (j > 1 || wy <= 0) ap += cy;
      if (j < ny - 2 || wy >= 0) ap += cy;
      if (k > 1) ap += cz;
      if (k < nz - 2) ap += cz;
      const unsigned mask = (j > 1 ? kShellYm : 0u) |
                            (j < ny - 2 ? kShellYp : 0u) |
                            (k > 1 ? kShellZm : 0u) |
                            (k < nz - 2 ? kShellZp : 0u);
      kShellSpans[mask](ShellRow{p, div, first, last, sy, sz, cx, cy, cz,
                                 ap, omega});
    } else {
      for (size_t c = first; c <= last; c += 2) {
        // Neighbors of a red cell are all black (and vice versa), so
        // they are loop-invariant within the sweep: pair the opposite
        // faces before scaling.
        const double sum = cx * (p[c - sx] + p[c + sx]) +
                           cy * (p[c - sy] + p[c + sy]) +
                           cz * (p[c - sz] + p[c + sz]);
        p[c] += omega * ((sum - div[c]) * inv_ap_core - p[c]);
      }
    }
    // At nx = 3 the one interior cell is both row ends, done above.
    if (((nx - 2) & 1) == par && nx > 3) general_cell(nx - 2, j, k);
  };

  // Each participant owns a fixed, balanced run of (j, k) rows for the RHS
  // and every sweep, so the split is not capped by nz. Rows are numbered
  // k-fastest here, so a run is a slab of whole j columns and neighbouring
  // participants share an nx-by-nz face (the smaller one on the fabric
  // mesh). A colour only reads the other colour, so its rows are
  // independent and the only synchronisation is one barrier between
  // consecutive sweeps; the RHS needs none, since each cell's div is
  // written and read by the participant owning its row.
  const int col_len = nz - 2;
  const int sweeps = 2 * std::max(0, params_.poisson_iters);
  const auto [rb, re] = region.Share(interior_rows_);
  const auto for_rows = [&](auto&& fn) {
    if (rb == re) return;
    int k = 1 + static_cast<int>(rb % static_cast<size_t>(col_len));
    int j = 1 + static_cast<int>(rb / static_cast<size_t>(col_len));
    for (size_t r = rb; r < re; ++r) {
      fn(j, k);
      if (++k == nz - 1) {
        k = 1;
        ++j;
      }
    }
  };
  // RHS: divergence of the provisional velocity / dt.
  const double* XG_RESTRICT u = cur_.u.data();
  const double* XG_RESTRICT v = cur_.v.data();
  const double* XG_RESTRICT w = cur_.w.data();
  for_rows([&](int j, int k) {
    size_t c = mesh_.Index(1, j, k);
    for (int i = 1; i < nx - 1; ++i, ++c) {
      div[c] = ((u[c + sx] - u[c - sx]) * idx2 +
                (v[c + sy] - v[c - sy]) * idy2 +
                (w[c + sz] - w[c - sz]) * idz2) /
               dt;
    }
  });
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    if (sweep > 0) region.Barrier();
    for_rows([&](int j, int k) { sweep_row(j, k, sweep & 1); });
  }
}

void Solver::MirrorPressure() {
  const int nx = mesh_.nx(), ny = mesh_.ny(), nz = mesh_.nz();
  double wx, wy;
  WindVector(wx, wy);
  double* XG_RESTRICT p = p_.data();
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      p[mesh_.Index(0, j, k)] = wx > 0 ? p[mesh_.Index(1, j, k)] : 0.0;
      p[mesh_.Index(nx - 1, j, k)] =
          wx < 0 ? p[mesh_.Index(nx - 2, j, k)] : 0.0;
    }
    for (int i = 0; i < nx; ++i) {
      p[mesh_.Index(i, 0, k)] = wy > 0 ? p[mesh_.Index(i, 1, k)] : 0.0;
      p[mesh_.Index(i, ny - 1, k)] =
          wy < 0 ? p[mesh_.Index(i, ny - 2, k)] : 0.0;
    }
  }
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      p[mesh_.Index(i, j, 0)] = p[mesh_.Index(i, j, 1)];
      p[mesh_.Index(i, j, nz - 1)] = p[mesh_.Index(i, j, nz - 2)];
    }
  }
}

double Solver::PoissonResidual(size_t rb, size_t re) const {
  const double cx = 1.0 / (mesh_.dx() * mesh_.dx());
  const double cy = 1.0 / (mesh_.dy() * mesh_.dy());
  const double cz = 1.0 / (mesh_.dz() * mesh_.dz());
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double* XG_RESTRICT p = p_.data();
  const double* XG_RESTRICT div = div_.data();
  double local = 0.0;
  ForRows(rb, re, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      const double lap = cx * (p[c + sx] - 2 * p[c] + p[c - sx]) +
                         cy * (p[c + sy] - 2 * p[c] + p[c - sy]) +
                         cz * (p[c + sz] - 2 * p[c] + p[c - sz]);
      local = std::max(local, std::abs(lap - div[c]));
    }
  });
  return local;
}

void Solver::Project(size_t rb, size_t re) {
  const double dt = params_.dt_s;
  const double idx2 = 1.0 / (2.0 * mesh_.dx()), idy2 = 1.0 / (2.0 * mesh_.dy()),
               idz2 = 1.0 / (2.0 * mesh_.dz());
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double* XG_RESTRICT p = p_.data();
  double* XG_RESTRICT u = cur_.u.data();
  double* XG_RESTRICT v = cur_.v.data();
  double* XG_RESTRICT w = cur_.w.data();
  ForRows(rb, re, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      u[c] -= dt * (p[c + sx] - p[c - sx]) * idx2;
      v[c] -= dt * (p[c + sy] - p[c - sy]) * idy2;
      w[c] -= dt * (p[c + sz] - p[c - sz]) * idz2;
    }
  });
}

double Solver::MaxDivergence(size_t rb, size_t re) const {
  const double idx2 = 1.0 / (2.0 * mesh_.dx()), idy2 = 1.0 / (2.0 * mesh_.dy()),
               idz2 = 1.0 / (2.0 * mesh_.dz());
  const int nx = mesh_.nx(), ny = mesh_.ny();
  const size_t sx = 1, sy = static_cast<size_t>(nx),
               sz = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  const double* XG_RESTRICT u = cur_.u.data();
  const double* XG_RESTRICT v = cur_.v.data();
  const double* XG_RESTRICT w = cur_.w.data();
  double local = 0.0;
  ForRows(rb, re, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      const double d = (u[c + sx] - u[c - sx]) * idx2 +
                       (v[c + sy] - v[c - sy]) * idy2 +
                       (w[c + sz] - w[c - sz]) * idz2;
      local = std::max(local, std::abs(d));
    }
  });
  return local;
}

double Solver::MaxDivergence() const { return MaxDivergence(0, interior_rows_); }

StepStats Solver::Step() { return Run(1); }

StepStats Solver::Run(int steps) {
  StepStats last;
  const bool pooled = pool_ != nullptr && interior_cells_ >= kMinPooledCells;
  // Per-participant maxima, each on its own cache line so concurrent
  // writes never share one; a max does not depend on the order it is
  // folded in, so the stats are bitwise those of the serial run.
  struct alignas(64) Maxima {
    double residual = 0.0;
    double divergence = 0.0;
  };
  std::vector<Maxima> maxima(pooled ? pool_->size() : 1);
  const uint64_t updates_per_step =
      interior_cells_ *
      static_cast<uint64_t>(3 + std::max(0, params_.poisson_iters));

  // The whole run is one region. Every participant steps through the same
  // phases over its share of rows, and a barrier closes each phase; the
  // boundary sweeps between them are serial, on participant 0, which also
  // opens the kernel scopes (one observation per kernel per step, and the
  // injected clock is only read from one thread). Advect writes prev_ from
  // cur_ and DiffuseAndForce writes cur_ back from prev_; each phase plus
  // its boundary sweep rewrites every cell of its target.
  const auto run = [&](const Region& region) {
    const bool lead = region.worker() == 0;
    obs::KernelTimer* const timer = lead ? timer_ : nullptr;
    const auto [rb, re] = region.Share(interior_rows_);
    Maxima& mine = maxima[region.worker()];
    for (int s = 0; s < steps; ++s) {
      {
        obs::KernelScope ks(timer, "advect");
        Advect(rb, re);
        region.Barrier();
        if (lead) ApplyBounds(prev_, true);
        region.Barrier();
      }
      {
        obs::KernelScope ks(timer, "diffuse_force");
        DiffuseAndForce(rb, re);
        region.Barrier();
        if (lead) ApplyBounds(cur_, true);
        region.Barrier();
      }
      {
        obs::KernelScope ks(timer, "sor");
        SolvePressure(region);
        region.Barrier();
        if (lead) MirrorPressure();
        region.Barrier();
      }
      {
        // Residual of the last sweep (max |Ap - b| scaled), for diagnostics.
        obs::KernelScope ks(timer, "residual");
        mine.residual = PoissonResidual(rb, re);
        region.Barrier();
      }
      {
        obs::KernelScope ks(timer, "project");
        Project(rb, re);
        region.Barrier();
        if (lead) ApplyBounds(cur_, false);
        region.Barrier();
      }
      {
        obs::KernelScope ks(timer, "max_divergence");
        mine.divergence = MaxDivergence(rb, re);
        region.Barrier();
      }
      if (lead) {
        // The others write their slots again only after the next step's
        // first barrier, which this participant has not reached yet.
        StepStats stats;
        for (const Maxima& m : maxima) {
          stats.poisson_residual = std::max(stats.poisson_residual, m.residual);
          stats.max_divergence = std::max(stats.max_divergence, m.divergence);
        }
        total_updates_ += updates_per_step;
        stats.cell_updates = total_updates_;
        last = stats;
      }
    }
  };
  if (pooled) {
    pool_->ParallelRegion(run);
  } else {
    RunRegionInline(run);
  }
  return last;
}

double Solver::SpeedAt(int i, int j, int k) const {
  const size_t c = mesh_.Index(i, j, k);
  return std::sqrt(cur_.u[c] * cur_.u[c] + cur_.v[c] * cur_.v[c] +
                   cur_.w[c] * cur_.w[c]);
}

double Solver::SpeedAtPoint(double x, double y, double z) const {
  int i, j, k;
  mesh_.Locate(x, y, z, i, j, k);
  return SpeedAt(i, j, k);
}

double Solver::TemperatureAtPoint(double x, double y, double z) const {
  int i, j, k;
  mesh_.Locate(x, y, z, i, j, k);
  return cur_.t[mesh_.Index(i, j, k)];
}

double Solver::InteriorMeanSpeed() const {
  const unsigned char* XG_RESTRICT inside = mesh_.inside_house().data();
  const double* XG_RESTRICT u = cur_.u.data();
  const double* XG_RESTRICT v = cur_.v.data();
  const double* XG_RESTRICT w = cur_.w.data();
  double sum = 0.0;
  uint64_t n = 0;
  ForRows(0, interior_rows_, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      if (inside[c] == 0) continue;
      sum += std::sqrt(u[c] * u[c] + v[c] * v[c] + w[c] * w[c]);
      ++n;
    }
  });
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double Solver::InteriorMeanTemperature() const {
  const unsigned char* XG_RESTRICT inside = mesh_.inside_house().data();
  const double* XG_RESTRICT t = cur_.t.data();
  double sum = 0.0;
  uint64_t n = 0;
  ForRows(0, interior_rows_, [&](size_t cb, size_t ce) {
    for (size_t c = cb; c < ce; ++c) {
      if (inside[c] == 0) continue;
      sum += t[c];
      ++n;
    }
  });
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace xg::cfd
