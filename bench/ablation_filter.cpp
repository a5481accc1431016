// Ablation: uniform vs random bunch selection. §IV-A argues that "random
// filtering bunches can possibly lead to distorted features of replayed
// traces due to many wave crests and troughs of workloads". This bench
// quantifies that: filter the bursty web trace both ways at each load
// level and compare (a) the per-interval shape correlation with the full
// trace and (b) the per-interval intensity deviation from the ideal scaled
// series.
#include "bench_common.h"

#include "core/proportional_filter.h"
#include "trace/trace_source.h"
#include "util/stats.h"
#include "workload/web_server_model.h"

#include <cmath>

namespace {

// Per-interval package-count series of a trace (pure trace-domain measure;
// no replay needed to judge filter fidelity).
std::vector<double> interval_series(const tracer::trace::TraceSource& source,
                                    double interval) {
  tracer::util::TimeBinnedSeries series(interval);
  for (std::size_t i = 0; i < source.bunch_count(); ++i) {
    series.add(source.timestamp(i),
               static_cast<double>(source.packages(i).size()));
  }
  return series.sums();
}

double rms_relative_deviation(const std::vector<double>& measured,
                              const std::vector<double>& ideal) {
  double sum = 0.0;
  std::size_t n = std::min(measured.size(), ideal.size());
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ideal[i] <= 0.0) continue;
    const double rel = (measured[i] - ideal[i]) / ideal[i];
    sum += rel * rel;
    ++used;
  }
  return used ? std::sqrt(sum / static_cast<double>(used)) : 0.0;
}

}  // namespace

int main() {
  using namespace tracer;
  bench::print_header(
      "Ablation — uniform (paper) vs random bunch filtering",
      "random selection distorts the workload's crests and troughs");

  workload::WebServerParams params;
  workload::WebServerModel model(params);
  const auto web =
      trace::make_source(trace::TraceView::owning(model.generate()));
  const double interval = 10.0;  // fine-grained: where distortion shows
  const std::vector<double> full = interval_series(*web, interval);

  util::Table table({"load %", "uniform RMS dev %", "random RMS dev %",
                     "uniform corr", "random corr"});
  double uniform_worst = 0.0;
  double random_worst = 0.0;
  for (double load : {0.1, 0.2, 0.3, 0.5, 0.7}) {
    const auto uniform = core::ProportionalFilter::apply(web, load);
    const auto random =
        core::ProportionalFilter::apply_random(web, load, /*seed=*/1234);

    std::vector<double> ideal(full.size());
    for (std::size_t i = 0; i < full.size(); ++i) ideal[i] = full[i] * load;

    auto u_series = interval_series(*uniform, interval);
    auto r_series = interval_series(*random, interval);
    u_series.resize(full.size());
    r_series.resize(full.size());

    const double u_dev = rms_relative_deviation(u_series, ideal);
    const double r_dev = rms_relative_deviation(r_series, ideal);
    const double u_corr = util::pearson_correlation(u_series, full);
    const double r_corr = util::pearson_correlation(r_series, full);
    uniform_worst = std::max(uniform_worst, u_dev);
    random_worst = std::max(random_worst, r_dev);
    table.row()
        .add(static_cast<int>(load * 100))
        .add(u_dev * 100.0, 2)
        .add(r_dev * 100.0, 2)
        .add(u_corr, 4)
        .add(r_corr, 4)
        .done();
  }
  table.print(std::cout);
  std::printf("worst RMS deviation: uniform %.2f %%, random %.2f %%\n",
              uniform_worst * 100.0, random_worst * 100.0);
  bench::print_verdict(uniform_worst < random_worst,
                       "uniform selection tracks the scaled workload more "
                       "faithfully than random selection");
  return bench::verdict_exit_code();
}
