// Regenerates the checked-in seed corpora under fuzz/corpus/. Run after a
// wire/journal/columnar format change so the seeds keep exercising the
// deep (valid-input) paths:
//
//   gen_corpus <repo>/fuzz/corpus
//
// Seeds are valid or near-valid inputs: fuzzers find the interesting
// mutations themselves, but only if the seeds get them past the
// magic/checksum gates.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/remote.h"
#include "db/journal.h"
#include "db/record.h"
#include "net/message.h"
#include "trace/columnar_format.h"
#include "trace/trace.h"

namespace fs = std::filesystem;

namespace {

void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

tracer::db::TestRecord sample_record() {
  tracer::db::TestRecord r;
  r.test_id = 42;
  r.timestamp = "2026-08-08T00:00:00Z";
  r.device = "raid5-hdd6";
  r.trace_name = "raid5-hdd6_rs4K_rnd50_rd0.replay";
  r.request_size = 4096;
  r.random_ratio = 0.5;
  r.read_ratio = 1.0 / 3.0;  // 17-significant-digit encoding in the row
  r.load_proportion = 0.8;
  r.avg_amps = 0.36;
  r.avg_volts = 220.1;
  r.avg_watts = 79.5;
  r.joules = 318.318;
  r.iops = 123.4;
  r.mbps = 0.505;
  r.avg_response_ms = 18.2;
  r.iops_per_watt = 1.552;
  r.mbps_per_kilowatt = 6.35;
  return r;
}

void gen_message(const fs::path& dir) {
  using tracer::net::Message;
  using tracer::net::MessageType;

  Message configure;
  configure.type = MessageType::kConfigureTest;
  configure.sequence = 7;
  configure.request_id = 3;
  configure.set("trace", "cello_news.replay2");
  configure.set_double("load_proportion", 2.0 / 3.0);
  configure.set_u64("request_size", 8192);
  write_bytes(dir / "configure_test", configure.serialize());

  Message perf = tracer::core::encode_record(sample_record());
  perf.sequence = 9001;
  perf.request_id = 4;
  write_bytes(dir / "perf_result", perf.serialize());

  write_bytes(dir / "heartbeat", tracer::net::make_heartbeat(12).serialize());
  write_bytes(dir / "error",
              tracer::net::make_error(5, "disk on fire").serialize());

  // Near-valid: a good frame cut one byte short (checksum torn off).
  auto torn = configure.serialize();
  torn.pop_back();
  write_bytes(dir / "torn_frame", torn);
  write_bytes(dir / "empty", {});
}

void gen_journal_row(const fs::path& dir) {
  using tracer::db::CampaignJournal;

  write_text(dir / "current_row",
             CampaignJournal::encode_line(sample_record()));

  auto quoted = sample_record();
  quoted.device = "array \"alpha\", bay 3";
  write_text(dir / "quoted_fields_row", CampaignJournal::encode_line(quoted));

  // Earlier layouts (pre-checksum 18-column, pre-power_valid 17-column):
  // every width but 19 is rejected, so these seeds exercise the reject
  // path next to fully parseable fields.
  const std::string legacy17 =
      "7,2026-01-01T00:00:00Z,hdd,old.replay,4096,0.5000,1.0000,0.8000,"
      "0.3600,220.1000,79.5000,318.0000,123.4000,0.5050,18.2000,1.5520,"
      "6.3500";
  write_text(dir / "legacy_17col_row", legacy17);
  write_text(dir / "legacy_18col_row", legacy17 + ",1");

  write_text(dir / "header_row",
             "test_id,timestamp,device,trace,request_size,random_ratio,"
             "read_ratio,load_proportion,avg_amps,avg_volts,avg_watts,"
             "joules,iops,mbps,avg_response_ms,iops_per_watt,"
             "mbps_per_kilowatt,power_valid,row_checksum");

  // Near-valid: checksum row with one digit corrupted — must be rejected.
  std::string bad = CampaignJournal::encode_line(sample_record());
  bad.back() = bad.back() == '0' ? '1' : '0';
  write_text(dir / "bad_checksum_row", bad);
}

void gen_columnar(const fs::path& dir) {
  using tracer::trace::Bunch;
  using tracer::trace::IoPackage;
  using tracer::OpType;
  using tracer::trace::Trace;

  Trace trace;
  trace.device = "cello";
  for (int i = 0; i < 8; ++i) {
    Bunch bunch;
    bunch.timestamp = 0.125 * i;
    for (int p = 0; p <= i % 3; ++p) {
      bunch.packages.push_back(IoPackage{
          static_cast<tracer::Sector>(1000 + 64 * i + p),
          static_cast<tracer::Bytes>(4096u << (p % 2)),
          (i + p) % 2 ? OpType::kWrite : OpType::kRead});
    }
    trace.bunches.push_back(std::move(bunch));
  }
  const fs::path valid = dir / "small_valid.replay2";
  tracer::trace::write_columnar_file(valid.string(), trace);

  Trace empty;
  empty.device = "empty";
  const fs::path empty_path = dir / "empty_trace.replay2";
  tracer::trace::write_columnar_file(empty_path.string(), empty);

  // Near-valid: the valid file cut mid-segment.
  std::ifstream in(valid, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  bytes.resize(bytes.size() * 2 / 3);
  write_bytes(dir / "truncated.replay2", bytes);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root-dir>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  for (const char* sub : {"message", "journal_row", "columnar"}) {
    fs::create_directories(root / sub);
  }
  gen_message(root / "message");
  gen_journal_row(root / "journal_row");
  gen_columnar(root / "columnar");
  std::printf("seed corpora written under %s\n", root.string().c_str());
  return 0;
}
