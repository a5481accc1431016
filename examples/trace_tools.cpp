// Example: trace-pipeline utilities as one multi-command tool — the
// workload-generator host's offline jobs (§III-A2: repository management
// and format transformation) without the rest of the framework.
//
//   trace_tools info <file.replay|.replay2>   trace statistics (Table III)
//   trace_tools convert <in> <out>            v1 <-> v2, direction by magic
//   trace_tools srt2replay <in.srt> <out.replay> [window_ms]
//   trace_tools filter <in.replay> <out.replay> <percent>
//   trace_tools scale <in.replay> <out.replay> <factor>
//   trace_tools gen-web <out.replay> [seconds]
//   trace_tools gen-cello <out.srt> [seconds]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/interarrival_scaler.h"
#include "core/proportional_filter.h"
#include "trace/blk_format.h"
#include "trace/columnar_format.h"
#include "trace/srt_format.h"
#include "trace/trace_stats.h"
#include "workload/cello_model.h"
#include "workload/web_server_model.h"

namespace {

using namespace tracer;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s info <file.replay|file.replay2>\n"
               "  %s convert <in> <out>   (v1 <-> v2, direction by magic)\n"
               "  %s srt2replay <in.srt> <out.replay> [window_ms=0.5]\n"
               "  %s filter <in.replay> <out.replay> <percent 1..100>\n"
               "  %s scale <in.replay> <out.replay> <factor>\n"
               "  %s gen-web <out.replay> [seconds=300]\n"
               "  %s gen-cello <out.srt> [seconds=300]\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Peek the 4-byte magic; true when `path` is a columnar v2 file.
bool is_columnar_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string("cannot open ") + path);
  }
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == 4 &&
         std::memcmp(magic, trace::kColumnarMagic, 4) == 0;
}

/// Read a v1 file into memory as a source.
std::shared_ptr<const trace::TraceSource> open_blk(const char* path) {
  return trace::make_source(
      trace::TraceView::owning(trace::read_blk_file(path)));
}

/// A v2 file streams through one decode window of RAM, however large it
/// is; a v1 file is read into memory.
std::shared_ptr<const trace::TraceSource> open_any(const char* path) {
  return is_columnar_file(path) ? trace::open_columnar_source(path)
                                : open_blk(path);
}

void print_stats(const std::string& device, const trace::TraceStats& stats) {
  std::printf("device:          %s\n", device.c_str());
  std::printf("bunches:         %llu\n",
              static_cast<unsigned long long>(stats.bunches));
  std::printf("packages:        %llu\n",
              static_cast<unsigned long long>(stats.packages));
  std::printf("duration:        %.3f s\n", stats.duration);
  std::printf("read ratio:      %.2f %%\n", stats.read_ratio * 100.0);
  std::printf("avg request:     %.1f KB\n", stats.mean_request_kb);
  std::printf("sequentiality:   %.2f %%\n", stats.sequential_ratio * 100.0);
  std::printf("footprint:       %.3f GB\n",
              static_cast<double>(stats.dataset_bytes) / 1e9);
  std::printf("address span:    %.3f GB\n",
              static_cast<double>(stats.address_span_bytes) / 1e9);
  std::printf("mean intensity:  %.1f IOPS, %.2f MBPS\n", stats.mean_iops,
              stats.mean_mbps);
}

void print_info(const trace::TraceSource& source) {
  print_stats(source.device(), trace::compute_stats(source));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  try {
    if (command == "info" && argc == 3) {
      print_info(*open_any(argv[2]));
      return 0;
    }
    if (command == "convert" && argc == 4) {
      // Direction from the input's magic, not its extension: v1 in ->
      // columnar out, v2 in -> row out. Both directions stream with
      // bounded memory.
      if (is_columnar_file(argv[2])) {
        const std::uint64_t bunches =
            trace::convert_columnar_to_blk(argv[2], argv[3]);
        std::printf("v2 -> v1: %llu bunches -> %s\n",
                    static_cast<unsigned long long>(bunches), argv[3]);
      } else {
        const std::uint64_t bunches =
            trace::convert_blk_to_columnar(argv[2], argv[3]);
        std::printf("v1 -> v2: %llu bunches -> %s\n",
                    static_cast<unsigned long long>(bunches), argv[3]);
      }
      return 0;
    }
    if (command == "srt2replay" && (argc == 4 || argc == 5)) {
      const double window_ms = argc == 5 ? std::atof(argv[4]) : 0.5;
      const auto records = trace::parse_srt_file(argv[2]);
      const trace::Trace trace =
          trace::srt_to_blk(records, window_ms * 1e-3, "srt-import");
      trace::write_blk_file(argv[3], trace);
      std::printf("%zu SRT records -> %zu bunches -> %s\n", records.size(),
                  trace.bunch_count(), argv[3]);
      return 0;
    }
    if (command == "filter" && argc == 5) {
      const double percent = std::atof(argv[4]);
      const auto in = open_blk(argv[2]);
      const trace::Trace out = trace::materialize(
          *core::ProportionalFilter::apply(in, percent / 100.0));
      trace::write_blk_file(argv[3], out);
      std::printf("%zu -> %zu bunches at %.0f %% -> %s\n", in->bunch_count(),
                  out.bunch_count(), percent, argv[3]);
      return 0;
    }
    if (command == "scale" && argc == 5) {
      const double factor = std::atof(argv[4]);
      const auto in = open_blk(argv[2]);
      const trace::Trace out =
          trace::materialize(*core::InterarrivalScaler::scale(in, factor));
      trace::write_blk_file(argv[3], out);
      std::printf("duration %.3f s -> %.3f s (intensity x%.2f) -> %s\n",
                  in->duration(), out.duration(), factor, argv[3]);
      return 0;
    }
    if (command == "gen-web" && (argc == 3 || argc == 4)) {
      workload::WebServerParams params;
      params.duration = argc == 4 ? std::atof(argv[3]) : 300.0;
      workload::WebServerModel model(params);
      const trace::Trace trace = model.generate();
      trace::write_blk_file(argv[2], trace);
      print_info(trace::TraceView::borrowed(trace));
      return 0;
    }
    if (command == "gen-cello" && (argc == 3 || argc == 4)) {
      workload::CelloParams params;
      params.duration = argc == 4 ? std::atof(argv[3]) : 300.0;
      workload::CelloModel model(params);
      const auto records = model.generate_srt();
      trace::write_srt_file(argv[2], records);
      std::printf("%zu SRT records -> %s\n", records.size(), argv[2]);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
