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
//
// Usage: bench_fig7_cfd_speedup [--smoke] [--out PATH]. The real-solver
// sweep warms each thread count up once, then times 5 repeats of 40 steps
// interleaved across the counts and reports the median and min/max;
// --smoke times 1 repeat of 10 steps. Writes BENCH_fig7.json (or PATH).
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
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
/// One thread count of the real-solver sweep: its pool, its solver and
/// the wall time of each timed repeat.
struct ThreadSweep {
  unsigned threads;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<cfd::Solver> solver;
  SampleSet wall_s;
};

/// Re-initialize the solver and time one run of `steps` steps.
double TimedRun(cfd::Solver& solver, int steps) {
  cfd::Boundary bc;
  bc.wind_speed_ms = 4.0;
  bc.wind_dir_deg = 270.0;
  solver.Initialize(bc);
  const auto t0 = std::chrono::steady_clock::now();
  solver.Run(steps);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

int main(int argc, char** argv) {
  bench::BenchFlags flags;
  flags.out_path = "BENCH_fig7.json";
  if (!bench::TakeBenchFlags(argc, argv, flags) || argc > 1) {
    std::cerr << "bench_fig7: usage: [--smoke] [--out PATH]\n";
    return 1;
  }
  const int repeats = flags.smoke ? 1 : 5;
  const int steps = flags.smoke ? 10 : 40;

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
  // every thread count runs the step on its pool. One untimed warm-up run
  // per count, then the repeats go round the counts in turn, so a slow
  // spell on a shared host lands on every count instead of on one.
  const cfd::MeshParams mp;
  cfd::Mesh mesh(mp);
  std::vector<ThreadSweep> sweeps;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned threads = 1; threads <= hw; threads *= 2) {
    ThreadSweep t{threads, std::make_unique<ThreadPool>(threads), nullptr,
                  SampleSet{}};
    t.solver = std::make_unique<cfd::Solver>(mesh, cfd::SolverParams{},
                                             t.pool.get());
    TimedRun(*t.solver, steps);
    sweeps.push_back(std::move(t));
  }
  for (int r = 0; r < repeats; ++r) {
    for (ThreadSweep& t : sweeps) t.wall_s.Add(TimedRun(*t.solver, steps));
  }
  Table real({"Threads", "Median (s)", "Min (s)", "Max (s)", "Repeats",
              "Steps", "Cells"});
  for (const ThreadSweep& t : sweeps) {
    real.AddRow({Table::Num(t.threads, 0), Table::Num(t.wall_s.Median(), 3),
                 Table::Num(t.wall_s.min(), 3), Table::Num(t.wall_s.max(), 3),
                 Table::Num(repeats, 0), Table::Num(steps, 0),
                 Table::Num(static_cast<double>(mesh.cell_count()), 0)});
  }
  real.Print(std::cout,
             "Real solver wall-clock (fabric mesh 48x40x12, above the "
             "pooling cutoff; 1 warm-up, then interleaved repeats)");

  // Machine-readable artifact mirroring the CSV plus the real-solver runs.
  std::ofstream jout(flags.out_path);
  if (!jout) {
    std::cerr << "bench_fig7: cannot open " << flags.out_path << "\n";
    return 1;
  }
  bench::JsonWriter jw(jout);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-fig7-v2");
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
  jw.Field("steps", steps);
  jw.Field("cells", static_cast<uint64_t>(mesh.cell_count()));
  jw.Field("warmup_runs", 1);
  jw.Field("repeats", repeats);
  jw.Key("runs");
  jw.BeginArray();
  for (const ThreadSweep& t : sweeps) {
    jw.BeginObject();
    jw.Field("threads", t.threads);
    jw.Field("median_wall_s", t.wall_s.Median());
    jw.Field("min_wall_s", t.wall_s.min());
    jw.Field("max_wall_s", t.wall_s.max());
    jw.Key("wall_s");
    jw.BeginArray();
    for (double w : t.wall_s.samples()) jw.Value(w);
    jw.EndArray();
    jw.EndObject();
  }
  jw.EndArray();
  jw.EndObject();
  jw.EndObject();
  jout << "\n";
  jout.close();
  if (!jout || !jw.Complete()) {
    std::cerr << "bench_fig7: write to " << flags.out_path << " failed\n";
    return 1;
  }
  std::cout << "Data written to " << flags.out_path << "\n";
  return 0;
}
