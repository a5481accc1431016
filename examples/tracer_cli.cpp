// Example: a command-line front end speaking the GUI line protocol —
// the evaluation-host control surface without the Windows GUI. Commands
// come from stdin (or a script via shell redirection), are translated by
// net::Parser into wire messages, and drive an EvaluationHost.
//
//   CONFIGURE_TEST rs=16K rnd=50 rd=25 load=60
//   START_TEST
//   CONFIGURE_TEST rs=4K rnd=100 rd=0 load=100
//   START_TEST
//   STOP_TEST
//
// Every completed test prints its record and appends it, numbered 1..n, to
// tracer_results.csv: a campaign journal (the results database) that each
// session starts afresh.
//
// Observability flags:
//   --metrics-out=PATH   dump the obs:: metrics snapshot on exit
//                        (.json extension -> JSON, anything else -> CSV)
//   --trace-out=PATH     enable span tracing; write Chrome trace-viewer
//                        JSON on exit (open via chrome://tracing)
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "core/remote.h"
#include "db/journal.h"
#include "net/parser.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  using namespace tracer;

  std::string device = "hdd";
  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::fprintf(stderr,
                   "usage: tracer_cli [hdd|ssd] [--metrics-out=PATH] "
                   "[--trace-out=PATH]\n");
      return 2;
    } else {
      device = arg;
    }
  }
  if (!trace_out.empty()) obs::Tracer::global().enable();

  storage::ArrayConfig config = device == "ssd"
                                    ? storage::ArrayConfig::ssd_testbed(4)
                                    : storage::ArrayConfig::hdd_testbed(6);

  core::EvaluationOptions options;
  options.collection_duration = 3.0;
  core::EvaluationHost host(
      config, std::filesystem::temp_directory_path() / "tracer-cli",
      options);
  core::WorkloadGeneratorService service(host);

  std::printf("TRACER CLI — array %s. Commands: CONFIGURE_TEST rs=<size> "
              "rnd=<pct> rd=<pct> load=<pct> | START_TEST | STOP_TEST\n",
              config.name.c_str());

  const std::string csv = "tracer_results.csv";
  std::filesystem::remove(csv);
  db::CampaignJournal journal(csv);
  std::size_t records = 0;

  std::string line;
  std::uint32_t sequence = 1;
  while (std::getline(std::cin, line)) {
    if (util::trim(line).empty()) continue;
    net::Message command;
    try {
      command = net::Parser::parse_command(line);
    } catch (const std::exception& e) {
      std::printf("! %s\n", e.what());
      continue;
    }
    // The GUI convention: percentages on the wire, ratios in the record.
    if (command.type == net::MessageType::kConfigureTest) {
      net::Message translated = command;
      std::uint64_t size = 0;
      if (auto rs = command.get("rs");
          !rs || !util::parse_size(*rs, size)) {
        std::printf("! CONFIGURE_TEST needs rs=<size>\n");
        continue;
      }
      translated.fields.clear();
      translated.set_u64("request_size", size);
      translated.set_double("random_ratio",
                            command.get_double("rnd").value_or(0.0) / 100.0);
      translated.set_double("read_ratio",
                            command.get_double("rd").value_or(0.0) / 100.0);
      translated.set_double(
          "load_proportion",
          command.get_double("load").value_or(100.0) / 100.0);
      command = translated;
    }
    command.sequence = sequence++;

    const net::Message reply = service.handle(command);
    std::printf("< %s\n", net::Parser::format_message(reply).c_str());
    if (reply.type == net::MessageType::kPerfResult) {
      db::TestRecord record = *service.last_record();
      record.test_id = ++records;
      journal.append(record);
    }
    if (command.type == net::MessageType::kStopTest) break;
  }

  std::printf("%zu records written to %s\n", records, csv.c_str());

  if (!metrics_out.empty()) {
    const obs::Snapshot snapshot = obs::Registry::global().snapshot();
    if (metrics_out.size() >= 5 &&
        metrics_out.compare(metrics_out.size() - 5, 5, ".json") == 0) {
      snapshot.write_json(metrics_out);
    } else {
      snapshot.write_csv(metrics_out);
    }
    std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    obs::Tracer::global().write_chrome_json(trace_out);
    std::printf("%zu span(s) written to %s\n",
                obs::Tracer::global().events().size(), trace_out.c_str());
  }
  return 0;
}
