// Golden physics-equivalence tests for the CFD hot-path overhaul.
//
// The double-buffered SoA stepping, fused boundary sweeps, baked per-cell
// drag/heat arrays, and restructured red-black SOR are pure performance
// changes: the physics they integrate must match the original copy-based
// solver. The golden scalars below were captured from the pre-overhaul
// solver (50 steps on the standard 24x20x12 test mesh) and every refactor
// since has been required to reproduce them to 1e-9 — far tighter than any
// physical tolerance, loose enough to permit floating-point reassociation
// inside a kernel (observed drift is ~1e-13).
//
// Two boundary configurations cover both SOR ghost-cell regimes: oblique
// wind (inflow on two faces, outflow on two) and axis-aligned wind with
// equal interior/exterior temperature (no initial thermal contrast).
#include "cfd/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "cfd/mesh.hpp"
#include "common/threadpool.hpp"

namespace xg::cfd {
namespace {

constexpr double kTol = 1e-9;
constexpr int kSteps = 50;

MeshParams GoldenMesh() {
  MeshParams p;
  p.nx = 24;
  p.ny = 20;
  p.nz = 12;
  return p;
}

struct Golden {
  Boundary bc;
  double max_divergence;
  double poisson_residual;
  double interior_mean_speed;
  double interior_mean_temperature;
};

/// Captured from the pre-overhaul solver at commit 215fad9 (see file
/// comment). Config 1: oblique south-west wind, warm interior. Config 2:
/// east wind, no interior/exterior temperature contrast.
Golden GoldenCase(int which) {
  Golden g;
  if (which == 0) {
    g.bc.wind_speed_ms = 4.0;
    g.bc.wind_dir_deg = 225.0;
    g.bc.exterior_temp_c = 21.0;
    g.bc.interior_temp_c = 26.0;
    g.max_divergence = 0.033398036854544372;
    g.poisson_residual = 0.00020222910685957149;
    g.interior_mean_speed = 0.34237635532551042;
    g.interior_mean_temperature = 25.607767659226354;
  } else {
    g.bc.wind_speed_ms = 2.5;
    g.bc.wind_dir_deg = 90.0;
    g.bc.exterior_temp_c = 24.0;
    g.bc.interior_temp_c = 24.0;
    g.max_divergence = 0.012634950985368328;
    g.poisson_residual = 6.22867667039095e-05;
    g.interior_mean_speed = 0.17261318578249568;
    g.interior_mean_temperature = 25.25340145081536;
  }
  return g;
}

/// The bit pattern of a double, so equality is exact (and -0.0 != 0.0).
uint64_t Bits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

void CheckAgainstGolden(const Solver& s, const StepStats& last,
                        const Golden& g) {
  EXPECT_NEAR(last.max_divergence, g.max_divergence, kTol);
  EXPECT_NEAR(last.poisson_residual, g.poisson_residual, kTol);
  EXPECT_NEAR(s.InteriorMeanSpeed(), g.interior_mean_speed, kTol);
  EXPECT_NEAR(s.InteriorMeanTemperature(), g.interior_mean_temperature, kTol);
}

TEST(SolverGolden, SerialMatchesPreOverhaulConfig1) {
  Mesh mesh(GoldenMesh());
  const Golden g = GoldenCase(0);
  Solver s(mesh, SolverParams{});
  s.Initialize(g.bc);
  const StepStats last = s.Run(kSteps);
  CheckAgainstGolden(s, last, g);
}

TEST(SolverGolden, SerialMatchesPreOverhaulConfig2) {
  Mesh mesh(GoldenMesh());
  const Golden g = GoldenCase(1);
  Solver s(mesh, SolverParams{});
  s.Initialize(g.bc);
  const StepStats last = s.Run(kSteps);
  CheckAgainstGolden(s, last, g);
}

TEST(SolverGolden, PooledMatchesPreOverhaulConfig1) {
  Mesh mesh(GoldenMesh());
  const Golden g = GoldenCase(0);
  ThreadPool pool(4);
  Solver s(mesh, SolverParams{}, &pool);
  s.Initialize(g.bc);
  const StepStats last = s.Run(kSteps);
  CheckAgainstGolden(s, last, g);
}

TEST(SolverGolden, PooledMatchesPreOverhaulConfig2) {
  Mesh mesh(GoldenMesh());
  const Golden g = GoldenCase(1);
  ThreadPool pool(4);
  Solver s(mesh, SolverParams{}, &pool);
  s.Initialize(g.bc);
  const StepStats last = s.Run(kSteps);
  CheckAgainstGolden(s, last, g);
}

// The decomposition must not perturb the result at all: serial and pooled
// runs go through identical per-cell arithmetic, and the stats are maxima,
// which do not depend on fold order, so the full field state, the last
// step's stats and the interior means are required to match bitwise. The
// mesh is the fabric's, above the solver's small-grid cutoff, so every pool
// size really runs the step on its workers.
TEST(SolverGolden, SerialAndPooledFieldsAgreeBitwise) {
  MeshParams mp;
  mp.nx = 48;
  mp.ny = 40;
  mp.nz = 12;
  Mesh mesh(mp);
  const Golden g = GoldenCase(0);
  constexpr int kBitwiseSteps = 20;
  Solver serial(mesh, SolverParams{});
  serial.Initialize(g.bc);
  const StepStats want = serial.Run(kBitwiseSteps);

  for (size_t workers = 1; workers <= 4; ++workers) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    ThreadPool pool(workers);
    Solver pooled(mesh, SolverParams{}, &pool);
    pooled.Initialize(g.bc);
    const StepStats got = pooled.Run(kBitwiseSteps);

    ASSERT_EQ(serial.u(), pooled.u());
    ASSERT_EQ(serial.v(), pooled.v());
    ASSERT_EQ(serial.w(), pooled.w());
    ASSERT_EQ(serial.temperature(), pooled.temperature());
    ASSERT_EQ(serial.pressure(), pooled.pressure());
    EXPECT_EQ(Bits(got.max_divergence), Bits(want.max_divergence));
    EXPECT_EQ(Bits(got.poisson_residual), Bits(want.poisson_residual));
    EXPECT_EQ(got.cell_updates, want.cell_updates);
    EXPECT_EQ(Bits(pooled.InteriorMeanSpeed()),
              Bits(serial.InteriorMeanSpeed()));
    EXPECT_EQ(Bits(pooled.InteriorMeanTemperature()),
              Bits(serial.InteriorMeanTemperature()));
  }
}

// ---------------------------------------------------------------------------
// Bitwise field digests.
//
// The 1e-9 scalars above tolerate reassociation; these do not. Each case
// pins a 64-bit FNV-1a digest of the raw bit patterns of u, v, w, T and p
// after 40 steps, recorded from the solver before the single-region SOR
// and row-constant shell kernel went in. Every execution mode — serial and
// pools of 1-4 workers — must reproduce the same digest, so any change to
// per-cell arithmetic or sweep order shows up here.
//
// Wind directions cover every sign of (wx, wy), the axis-aligned ones
// included (at 0 deg wx is exactly -0.0, at 90/180/270 deg one component
// is a rounding-sized residue of sin/cos). The meshes cover the default
// fabric mesh, a small nz (whole rows of shell cells), and nx < 6 (every
// row takes the shell path, nx = 3 has one interior column whose two row
// ends coincide). The last three are under the solver's small-grid cutoff
// and run serially on any pool, so two meshes above it carry the same edge
// cases onto the workers: 5x300x12 (nx < 6, every row a shell row) and
// 4100x3x4 (two interior rows, so pools of 3 and 4 have empty shares).

constexpr int kDigestSteps = 40;

uint64_t FnvDigest(const Solver& s) {
  uint64_t h = 14695981039346656037ull;
  for (const std::vector<double>* f :
       {&s.u(), &s.v(), &s.w(), &s.temperature(), &s.pressure()}) {
    for (double d : *f) {
      const uint64_t bits = Bits(d);
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

struct DigestCase {
  int nx, ny, nz;
  double wind_dir_deg;
  uint64_t digest;
};

void PrintTo(const DigestCase& c, std::ostream* os) {
  *os << c.nx << "x" << c.ny << "x" << c.nz << " wind from "
      << c.wind_dir_deg << " deg";
}

std::string DigestCaseName(const testing::TestParamInfo<DigestCase>& info) {
  const DigestCase& c = info.param;
  return std::to_string(c.nx) + "x" + std::to_string(c.ny) + "x" +
         std::to_string(c.nz) + "_dir" +
         std::to_string(static_cast<int>(c.wind_dir_deg));
}

uint64_t RunDigest(const DigestCase& c, ThreadPool* pool) {
  MeshParams mp;
  mp.nx = c.nx;
  mp.ny = c.ny;
  mp.nz = c.nz;
  Mesh mesh(mp);
  Boundary bc;
  bc.wind_speed_ms = 4.0;
  bc.wind_dir_deg = c.wind_dir_deg;
  bc.exterior_temp_c = 21.0;
  bc.interior_temp_c = 26.0;
  Solver s(mesh, SolverParams{}, pool);
  s.Initialize(bc);
  s.Run(kDigestSteps);
  return FnvDigest(s);
}

class SolverDigest : public testing::TestWithParam<DigestCase> {};

TEST_P(SolverDigest, SerialAndPooledReproduceSeedDigest) {
  const DigestCase& c = GetParam();
  const uint64_t serial = RunDigest(c, nullptr);
  EXPECT_EQ(serial, c.digest) << "serial digest 0x" << std::hex << serial;
  for (size_t workers = 1; workers <= 4; ++workers) {
    ThreadPool pool(workers);
    const uint64_t got = RunDigest(c, &pool);
    EXPECT_EQ(got, c.digest)
        << workers << "-worker digest 0x" << std::hex << got;
  }
}

constexpr double kDirs[] = {0, 45, 90, 135, 180, 225, 270, 315};

std::vector<DigestCase> DigestCases() {
  const int meshes[][3] = {{48, 40, 12}, {24, 20, 4}, {5, 20, 12}, {3, 12, 6}};
  const uint64_t digests[4][8] = {
      {0x5c73a44a866e55fe, 0xa84bab81aa769f13, 0xecff32086c5ac271,
       0xddc4ac340306c3eb, 0xc2e539f1431f4c8f, 0x8c6a493bc02ec929,
       0x2c6768374e3cf656, 0x57b9396bcdb7f77a},
      {0xf4faeae22a3e790f, 0x6df4dcf6e2d49e8d, 0xa7d3756c07f9e665,
       0xd0abe5c5b7cccec7, 0x395321b6f878f923, 0xecbe8d318f8e0064,
       0xc11af1b7dd04898f, 0x16be0fed54339cec},
      {0xa7300c1e421b0b27, 0xb01c11f5053676e2, 0x2be203a445ce0035,
       0xcb537b4171c8f748, 0xf859fe8dbdd14413, 0x3ce165240dc3982e,
       0x271990a813df6c60, 0xbde05dbe20fa1ccb},
      {0x5d42c8fdd3c40900, 0x36130ef5e7682189, 0x738f322ad3a8e7c9,
       0x82835889935c331d, 0xbc73d6ae0f01fbdd, 0x5d361ce5a2130f7d,
       0x160fc7a53d185469, 0x73d578e3006a0765},
  };
  // Recorded from the solver before the step became one region.
  const int pooled_meshes[][3] = {{5, 300, 12}, {4100, 3, 4}};
  const uint64_t pooled_digests[2][8] = {
      {0x6781d337ede5bebd, 0xb41a57fa8cf499a5, 0x2b18a66a8725102a,
       0x1e498748777620b6, 0x22619f151236bcef, 0xe6a68ae266f40c9d,
       0xbe5af9331a46c7e0, 0xecbdbea8eaa85aaa},
      {0x589a3f9186706285, 0x3d5f18c399c32149, 0x5c8cf05fd1396749,
       0xa55ce713d2a129a9, 0x3b6e528d89e6fb49, 0x49cdc8cd2e3c3251,
       0x87ca233b26c5f335, 0xf920592d1c1b00e1},
  };
  std::vector<DigestCase> cases;
  for (int m = 0; m < 4; ++m) {
    for (int d = 0; d < 8; ++d) {
      cases.push_back({meshes[m][0], meshes[m][1], meshes[m][2], kDirs[d],
                       digests[m][d]});
    }
  }
  for (int m = 0; m < 2; ++m) {
    for (int d = 0; d < 8; ++d) {
      cases.push_back({pooled_meshes[m][0], pooled_meshes[m][1],
                       pooled_meshes[m][2], kDirs[d], pooled_digests[m][d]});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seed, SolverDigest, testing::ValuesIn(DigestCases()),
                         DigestCaseName);

}  // namespace
}  // namespace xg::cfd
