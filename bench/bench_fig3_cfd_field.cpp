// Figure 3 (right panel) reproduction: the CFD simulation of airflow
// around and within the CUPS structure, driven by telemetry-derived
// boundary conditions. Produces:
//   fig3_cups.vtk  — full 3D fields (ParaView-loadable legacy VTK)
//   fig3_cups.ppm  — color-mapped horizontal slice of |velocity| with the
//                    house outline (the paper's rendered panel stand-in)
// and prints the field summary the digital twin consumes.
#include <fstream>
#include <iostream>

#include "bench/bench_json.hpp"
#include "cfd/case.hpp"
#include "cfd/solver.hpp"
#include "cfd/vtk.hpp"
#include "common/table.hpp"
#include "sensors/atmosphere.hpp"

using namespace xg;

int main() {
  // Boundary conditions from the synthetic atmosphere at mid-afternoon,
  // the same way the pilot's preprocessing pipeline derives them.
  sensors::Atmosphere atmo(sensors::AtmosphereParams{}, 303);
  atmo.Advance(15.0 * 3600.0);
  const sensors::AtmoState ext = atmo.Current();

  cfd::CfdCase cfd_case;
  cfd_case.name = "cups_structure";
  cfd_case.mesh.nx = 60;
  cfd_case.mesh.ny = 50;
  cfd_case.mesh.nz = 14;
  cfd_case.steps = 200;
  cfd_case.boundary = cfd::BoundaryFromTelemetry(
      ext.wind_speed_ms, ext.wind_dir_deg, ext.temperature_c,
      ext.temperature_c + 1.8);

  // Round-trip the case file — the pilot's input-deck generation step.
  auto parsed = cfd::ParseCase(cfd::FormatCase(cfd_case));
  if (!parsed.ok()) {
    std::cerr << "case generation failed: " << parsed.status().ToString()
              << "\n";
    return 1;
  }
  cfd_case = parsed.take();

  cfd::Mesh mesh(cfd_case.mesh);
  ThreadPool pool;
  cfd::Solver solver(mesh, cfd_case.solver, &pool);
  solver.Initialize(cfd_case.boundary);
  std::cout << "Running " << cfd_case.steps << " steps on "
            << mesh.cell_count() << " cells ("
            << mesh.CountType(cfd::CellType::kScreen) << " screen, "
            << mesh.CountType(cfd::CellType::kCanopy) << " canopy)...\n";
  const cfd::StepStats last = solver.Run(cfd_case.steps);

  Table summary({"Quantity", "Value"});
  summary.AddRow({"Boundary wind (m/s)",
                  Table::Num(cfd_case.boundary.wind_speed_ms)});
  summary.AddRow({"Boundary direction (deg)",
                  Table::Num(cfd_case.boundary.wind_dir_deg, 0)});
  summary.AddRow({"Exterior temperature (C)",
                  Table::Num(cfd_case.boundary.exterior_temp_c)});
  summary.AddRow({"Interior mean air speed (m/s)",
                  Table::Num(solver.InteriorMeanSpeed())});
  summary.AddRow({"Interior/exterior wind ratio",
                  Table::Num(solver.InteriorMeanSpeed() /
                             cfd_case.boundary.wind_speed_ms)});
  summary.AddRow({"Interior mean temperature (C)",
                  Table::Num(solver.InteriorMeanTemperature())});
  summary.AddRow({"Max residual divergence (1/s)",
                  Table::Num(last.max_divergence, 4)});
  summary.AddRow({"Poisson residual", Table::Num(last.poisson_residual, 5)});
  summary.Print(std::cout, "Figure 3: CUPS airflow simulation summary");

  // Machine-readable artifact mirroring the field summary.
  std::ofstream jout("BENCH_fig3.json");
  if (!jout) {
    std::cerr << "bench_fig3: cannot open BENCH_fig3.json\n";
    return 1;
  }
  bench::JsonWriter jw(jout);
  jw.BeginObject();
  jw.Field("schema", "xg-bench-fig3-v1");
  jw.Field("cells", static_cast<uint64_t>(mesh.cell_count()));
  jw.Field("steps", cfd_case.steps);
  jw.Field("boundary_wind_ms", cfd_case.boundary.wind_speed_ms);
  jw.Field("boundary_dir_deg", cfd_case.boundary.wind_dir_deg);
  jw.Field("exterior_temp_c", cfd_case.boundary.exterior_temp_c);
  jw.Field("interior_mean_speed_ms", solver.InteriorMeanSpeed());
  jw.Field("interior_exterior_wind_ratio",
           solver.InteriorMeanSpeed() / cfd_case.boundary.wind_speed_ms);
  jw.Field("interior_mean_temp_c", solver.InteriorMeanTemperature());
  jw.Field("max_divergence", last.max_divergence);
  jw.Field("poisson_residual", last.poisson_residual);
  jw.EndObject();
  jout << "\n";
  jout.close();
  if (!jout || !jw.Complete()) {
    std::cerr << "bench_fig3: write to BENCH_fig3.json failed\n";
    return 1;
  }
  std::cout << "\nData written to BENCH_fig3.json\n";

  Status vtk = cfd::WriteVtk(solver, "fig3_cups.vtk");
  Status ppm = cfd::WriteSlicePpm(solver, 3.0, "fig3_cups.ppm", 6);
  std::cout << "\nVTK output:   fig3_cups.vtk  ("
            << (vtk.ok() ? "written" : vtk.ToString()) << ")\n"
            << "Slice raster: fig3_cups.ppm  ("
            << (ppm.ok() ? "written" : ppm.ToString()) << ")\n"
            << "Expected shape: flow accelerates around the structure, "
               "strongly attenuated inside the\nscreen house; interior "
               "warmer than exterior from canopy heating.\n";
  return vtk.ok() && ppm.ok() ? 0 : 1;
}
