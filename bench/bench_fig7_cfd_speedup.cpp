// Figure 7 reproduction: total CFD application runtime (including mesh
// generation) on a single node as a function of core count — 10 runs per
// size, mean and +/- 2 standard deviations, as in the paper.
//
// SUBSTITUTION NOTE (DESIGN.md): the paper measures OpenFOAM wall-clock on
// a real 64-core node. This build machine has one core, so the sweep
// samples the calibrated performance model (anchored to the paper's
// 420.39 s +/- 36.29 s at 64 cores). A scaled wall-clock run of the real
// solver is included below to show the implementation actually computes.
//
// Also reproduced: the Section 4.4 multi-node statement — the OpenFOAM
// kernel is fastest on 2 x 64 cores, but the total application is fastest
// on a single node.
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_json.hpp"
#include "cfd/solver.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "hpc/perfmodel.hpp"

using namespace xg;

namespace {
struct CoreSample {
  int cores;
  double mean_s;
  double sd_s;
};
struct ThreadSample {
  unsigned threads;
  double wall_s;
};
}  // namespace

int main() {
  hpc::CfdPerfModel model;
  Rng rng(7001);

  Table fig7({"Cores", "Mean total (s)", "SD (s)", "-2SD", "+2SD",
              "Speedup vs 1"});
  std::vector<CoreSample> sweep;
  const double t1 = model.TotalTime(1, 1);
  for (int cores : {1, 2, 4, 8, 16, 32, 48, 64}) {
    RunningStats runs;
    for (int r = 0; r < 10; ++r) {
      runs.Add(model.SampleTotalTime(cores, 1, rng));
    }
    sweep.push_back({cores, runs.mean(), runs.stddev()});
    fig7.AddRow({Table::Num(cores, 0), Table::Num(runs.mean()),
                 Table::Num(runs.stddev()),
                 Table::Num(runs.mean() - 2 * runs.stddev()),
                 Table::Num(runs.mean() + 2 * runs.stddev()),
                 Table::Num(t1 / runs.mean(), 1)});
  }
  fig7.Print(std::cout,
             "Figure 7: OpenFOAM-substitute total runtime vs core count "
             "(single node, 10 runs per size)");
  if (fig7.WriteCsv("fig7_speedup.csv")) {
    std::cout << "Data written to fig7_speedup.csv\n";
  }
  std::cout << "Paper anchor: 64 cores -> 420.39 s +/- 36.29 s\n\n";

  Table nodes({"Nodes x 64 cores", "OpenFOAM kernel (s)", "Total app (s)"});
  for (int n : {1, 2, 3, 4}) {
    nodes.AddRow({Table::Num(n, 0), Table::Num(model.FoamTime(64, n)),
                  Table::Num(model.TotalTime(64, n))});
  }
  nodes.Print(std::cout, "Section 4.4: multi-node (MPI) scaling of kernel "
                         "vs total application");
  std::cout << "Expected: kernel minimum at 2 nodes; total minimum at 1 "
               "node (decompose/reconstruct overhead grows with nodes).\n\n";

  // Real-solver wall-clock at reduced scale: demonstrates the actual
  // implementation on the fabric's default 48x40x12 mesh. Its 17,480
  // interior cells are above the solver's 8,192-cell pooling cutoff, so
  // every thread count runs the step on its pool.
  const cfd::MeshParams mp;
  cfd::Mesh mesh(mp);
  Table real({"Threads", "Wall-clock (s)", "Steps", "Cells"});
  std::vector<ThreadSample> wall;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned threads = 1; threads <= hw; threads *= 2) {
    ThreadPool pool(threads);
    cfd::Solver solver(mesh, cfd::SolverParams{}, &pool);
    cfd::Boundary bc;
    bc.wind_speed_ms = 4.0;
    bc.wind_dir_deg = 270.0;
    solver.Initialize(bc);
    const auto t0 = std::chrono::steady_clock::now();
    solver.Run(40);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    wall.push_back({threads, secs});
    real.AddRow({Table::Num(threads, 0), Table::Num(secs, 3), "40",
                 Table::Num(static_cast<double>(mesh.cell_count()), 0)});
  }
  real.Print(std::cout,
             "Real solver wall-clock (fabric mesh 48x40x12, above the "
             "pooling cutoff)");

  // Machine-readable artifact mirroring the CSV plus the real-solver runs.
  std::ofstream jout("BENCH_fig7.json");
  if (!jout) {
    std::cerr << "bench_fig7: cannot open BENCH_fig7.json\n";
    return 1;
  }
  bench::JsonWriter jw(jout);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-fig7-v1");
  jw.Field("paper_anchor_cores", 64);
  jw.Field("paper_anchor_mean_s", 420.39);
  jw.Field("paper_anchor_sd_s", 36.29);
  jw.Key("model_sweep");
  jw.BeginArray();
  for (const CoreSample& s : sweep) {
    jw.BeginObject();
    jw.Field("cores", s.cores);
    jw.Field("mean_total_s", s.mean_s);
    jw.Field("sd_s", s.sd_s);
    jw.Field("speedup_vs_1", s.mean_s > 0 ? t1 / s.mean_s : 0.0);
    jw.EndObject();
  }
  jw.EndArray();
  jw.Key("real_solver");
  jw.BeginObject();
  jw.Field("steps", 40);
  jw.Field("cells", static_cast<uint64_t>(mesh.cell_count()));
  jw.Key("runs");
  jw.BeginArray();
  for (const ThreadSample& s : wall) {
    jw.BeginObject();
    jw.Field("threads", s.threads);
    jw.Field("wall_s", s.wall_s);
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();
  jw.EndObject();
  jout << "\n";
  jout.close();
  if (!jout || !jw.Complete()) {
    std::cerr << "bench_fig7: write to BENCH_fig7.json failed\n";
    return 1;
  }
  std::cout << "Data written to BENCH_fig7.json\n";
  return 0;
}
