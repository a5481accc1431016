// Ablation: proportional bunch filtering vs inter-arrival time scaling —
// the two intensity controls in TRACER (Fig 2 exposes both). They reach
// the same average intensity by different means:
//   * filtering drops bunches but keeps the surviving requests' timing and
//     concurrency — request mix and per-request locality are preserved;
//   * inter-arrival scaling keeps every request but stretches/compresses
//     time — per-interval intensity is exact, but the burst structure is
//     dilated and (above 100 %) it can exceed the filter's reach.
// The bench replays both at matched intensities and reports throughput and
// response time, then demonstrates scaling's exclusive >100 % regime.
#include "bench_common.h"

#include "core/interarrival_scaler.h"
#include "core/proportional_filter.h"
#include "core/replay_engine.h"
#include "storage/disk_array.h"
#include "workload/web_server_model.h"

int main() {
  using namespace tracer;
  bench::print_header(
      "Ablation — bunch filtering vs inter-arrival scaling",
      "matched mean intensity, different temporal texture; scaling also "
      "reaches >100 %");

  workload::WebServerParams params;
  params.duration = 900.0;  // 15 min is enough for steady statistics
  workload::WebServerModel model(params);
  const auto web =
      trace::make_source(trace::TraceView::owning(model.generate()));

  auto run = [&](const std::shared_ptr<const trace::TraceSource>& source) {
    core::ReplayEngine engine;
    storage::DiskArray array(engine.simulator(),
                             storage::ArrayConfig::hdd_testbed(6));
    return engine.replay(*source, array);
  };

  util::Table table({"intensity %", "filter IOPS", "scale IOPS",
                     "filter resp ms", "scale resp ms"});
  for (double intensity : {0.2, 0.5, 0.8}) {
    const auto filtered =
        run(core::ProportionalFilter::apply(web, intensity));
    // Scaling stretches time; intensity i needs factor i (gaps / i means
    // timestamps divided by i... factor < 1 stretches).
    const auto scaled = run(core::InterarrivalScaler::scale(web, intensity));
    table.row()
        .add(static_cast<int>(intensity * 100))
        .add(filtered.perf.iops, 1)
        .add(scaled.perf.iops, 1)
        .add(filtered.perf.avg_response_ms, 2)
        .add(scaled.perf.avg_response_ms, 2)
        .done();
  }
  table.print(std::cout);

  // The >100 % regime only scaling can reach (Fig 2 mentions 200/1000 %).
  std::printf("\n>100%% intensity via inter-arrival scaling:\n");
  util::Table over({"intensity %", "IOPS", "MBPS", "resp ms"});
  double iops_200 = 0.0;
  double iops_100 = 0.0;
  for (double intensity : {1.0, 2.0}) {
    const auto report =
        run(core::InterarrivalScaler::scale(web, intensity));
    if (intensity == 1.0) iops_100 = report.perf.iops;
    if (intensity == 2.0) iops_200 = report.perf.iops;
    over.row()
        .add(static_cast<int>(intensity * 100))
        .add(report.perf.iops, 1)
        .add(report.perf.mbps, 2)
        .add(report.perf.avg_response_ms, 2)
        .done();
  }
  over.print(std::cout);
  bench::print_verdict(iops_200 > iops_100 * 1.5,
                       "inter-arrival scaling reaches intensities above "
                       "100 % (200 % replay sustains higher throughput)");
  return bench::verdict_exit_code();
}
