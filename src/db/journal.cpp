#include "db/journal.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace tracer::db {

namespace {

// Checksum column: 16 lowercase hex digits of FNV-1a over the line's bytes
// up to (not including) the ",<checksum>" suffix. Plain hex never needs
// CSV quoting, so the suffix is always exactly 17 bytes of the raw line.
constexpr std::size_t kChecksumHexLen = 16;

// The header line. Every row has exactly one field per column it names.
constexpr std::string_view kHeader =
    "test_id,timestamp,device,trace,request_size,random_ratio,read_ratio,"
    "load_proportion,avg_amps,avg_volts,avg_watts,joules,iops,mbps,"
    "avg_response_ms,iops_per_watt,mbps_per_kilowatt,power_valid,"
    "row_checksum";
constexpr std::size_t kColumns =
    std::count(kHeader.begin(), kHeader.end(), ',') + 1;

std::string checksum_hex(std::string_view prefix) {
  return util::format("%016llx",
                      static_cast<unsigned long long>(util::fnv1a(prefix)));
}

// Strict numeric parsing: the whole field must be consumed, so a row whose
// checksum verifies still cannot smuggle in a field such as "3.125<66.7".
bool parse_u64_field(const std::string& field, std::uint64_t& out) {
  try {
    std::size_t pos = 0;
    out = std::stoull(field, &pos);
    return pos == field.size() && !field.empty();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_double_field(const std::string& field, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(field, &pos);
    return pos == field.size() && !field.empty();
  } catch (const std::exception&) {
    return false;
  }
}

/// Parse the 18 data columns of a checksum-verified row.
bool parse_row(const std::vector<std::string>& fields, TestRecord& out) {
  out.timestamp = fields[1];
  out.device = fields[2];
  out.trace_name = fields[3];
  // Column 17 (power_valid) is always 1 now that power is always metered
  // in process. It must still be an unsigned integer, so rows written when
  // it could be 0 still load, with their checksums unchanged.
  std::uint64_t power_valid = 1;
  return parse_u64_field(fields[0], out.test_id) &&
         parse_u64_field(fields[4], out.request_size) &&
         parse_double_field(fields[5], out.random_ratio) &&
         parse_double_field(fields[6], out.read_ratio) &&
         parse_double_field(fields[7], out.load_proportion) &&
         parse_double_field(fields[8], out.avg_amps) &&
         parse_double_field(fields[9], out.avg_volts) &&
         parse_double_field(fields[10], out.avg_watts) &&
         parse_double_field(fields[11], out.joules) &&
         parse_double_field(fields[12], out.iops) &&
         parse_double_field(fields[13], out.mbps) &&
         parse_double_field(fields[14], out.avg_response_ms) &&
         parse_double_field(fields[15], out.iops_per_watt) &&
         parse_double_field(fields[16], out.mbps_per_kilowatt) &&
         parse_u64_field(fields[17], power_valid);
}

/// Validate one raw journal line as a record row; fills `out` on success.
/// The row must have exactly the header's 19 columns and its checksum must
/// verify against its own bytes.
bool validate_record_line(const std::string& line, TestRecord& out) {
  const auto rows = util::CsvReader::parse(line);
  if (rows.size() != 1) return false;
  const auto& fields = rows[0];
  if (fields.size() != kColumns) return false;
  const std::string& checksum = fields.back();
  if (checksum.size() != kChecksumHexLen) return false;
  for (char c : checksum) {
    if (!std::isxdigit(static_cast<unsigned char>(c)) ||
        std::isupper(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  const std::size_t suffix = kChecksumHexLen + 1;  // ",<hex>"
  if (line.size() < suffix + 1) return false;
  if (line.compare(line.size() - suffix, suffix, "," + checksum) != 0) {
    return false;  // checksum field was quoted/mangled: not ours
  }
  if (checksum_hex(std::string_view(line).substr(0, line.size() - suffix)) !=
      checksum) {
    return false;
  }
  return parse_row(fields, out);
}

bool is_header_line(const std::string& line) { return line == kHeader; }

/// Split `text` into lines, keeping track of whether the final line was
/// newline-terminated. Journal rows never contain embedded newlines
/// (append refuses them), so a '\n' is always a row boundary.
struct Line {
  std::string text;
  std::uint64_t end_offset;  ///< file offset one past this line's '\n'
};

std::vector<Line> split_lines(const std::string& text, bool& torn_tail) {
  std::vector<Line> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) break;  // unterminated fragment
    lines.push_back({text.substr(start, nl - start), nl + 1});
    start = nl + 1;
  }
  torn_tail = start < text.size();
  return lines;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::string CampaignJournal::encode_line(const TestRecord& r) {
  for (const std::string* field :
       {&r.timestamp, &r.device, &r.trace_name}) {
    if (field->find_first_of("\n\r") != std::string::npos) {
      throw std::invalid_argument(
          "CampaignJournal: record field contains a newline");
    }
  }
  std::ostringstream buffer;
  util::CsvWriter csv(buffer);
  // The journal is the resume/merge source of truth, so every double is
  // written %.17g (add_lossless): a record loaded after a crash must
  // compare bit-equal to the one measured before it. Display-precision
  // rows (the pre-fix .add(x, 4) encoding) silently rounded measurements
  // at 1e-4 relative on every resume — the PR 9 %.9g wire bug class, one
  // layer down.
  csv.row()
      .add(r.test_id)
      .add(r.timestamp)
      .add(r.device)
      .add(r.trace_name)
      .add(r.request_size)
      .add_lossless(r.random_ratio)
      .add_lossless(r.read_ratio)
      .add_lossless(r.load_proportion)
      .add_lossless(r.avg_amps)
      .add_lossless(r.avg_volts)
      .add_lossless(r.avg_watts)
      .add_lossless(r.joules)
      .add_lossless(r.iops)
      .add_lossless(r.mbps)
      .add_lossless(r.avg_response_ms)
      .add_lossless(r.iops_per_watt)
      .add_lossless(r.mbps_per_kilowatt)
      .add(std::uint64_t{1})  // power_valid: see parse_row
      .done();
  std::string line = buffer.str();
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line + ',' + checksum_hex(line);
}

bool CampaignJournal::parse_record_line(const std::string& line,
                                        TestRecord& out) {
  return validate_record_line(line, out);
}

CampaignJournal::CampaignJournal(std::filesystem::path path)
    : path_(std::move(path)) {
  if (path_.has_parent_path()) {
    std::filesystem::create_directories(path_.parent_path());
  }
  bool fresh =
      !std::filesystem::exists(path_) || std::filesystem::file_size(path_) == 0;

  // Truncate-to-last-valid-row recovery: scan the existing file and cut it
  // back to the longest prefix of verifiable lines. Append-only means any
  // damage invalidates everything after it — row boundaries downstream of
  // a corrupt byte cannot be trusted — so recovery is a prefix property.
  if (!fresh) {
    const std::string text = read_file(path_);
    bool torn_tail = false;
    const auto lines = split_lines(text, torn_tail);
    std::uint64_t valid_end = 0;
    std::size_t dropped_rows = 0;
    bool saw_header = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      TestRecord scratch;
      if (i == 0 && is_header_line(lines[i].text)) {
        saw_header = true;
        valid_end = lines[i].end_offset;
        continue;
      }
      if (!validate_record_line(lines[i].text, scratch)) {
        dropped_rows = lines.size() - i;
        break;
      }
      valid_end = lines[i].end_offset;
    }
    if (!saw_header) valid_end = 0;  // headerless file: start over
    if (valid_end < text.size()) {
      recovery_.truncated_bytes = text.size() - valid_end;
      recovery_.dropped_rows = dropped_rows;
      std::filesystem::resize_file(path_, valid_end);
      TRACER_LOG(kWarn) << "journal " << path_.string() << ": recovered by "
                        << "truncating " << recovery_.truncated_bytes
                        << " damaged tail bytes (" << recovery_.dropped_rows
                        << " complete rows dropped"
                        << (torn_tail ? ", torn final row" : "") << ")";
      fresh = valid_end == 0;
    }
  }

  // Constructor-time lock: uncontended (no other thread can hold a
  // reference yet), present for the thread-safety analysis.
  util::MutexLock lock(mutex_);
  out_.open(path_, std::ios::app);
  if (!out_) {
    throw std::runtime_error("CampaignJournal: cannot open " + path_.string());
  }
  if (fresh) {
    out_ << kHeader << '\n';
    out_.flush();
    if (!out_) {
      throw std::runtime_error("CampaignJournal: write failed for " +
                               path_.string());
    }
  }
}

void CampaignJournal::append(const TestRecord& r) {
  const std::string line = encode_line(r);  // validates before the lock
  util::MutexLock lock(mutex_);
  out_ << line << '\n';
  out_.flush();
  if (!out_) {
    throw std::runtime_error("CampaignJournal: write failed for " +
                             path_.string());
  }
}

bool CampaignJournal::is_blank(const std::filesystem::path& path) {
  if (!std::filesystem::exists(path)) return true;
  const std::string text = read_file(path);
  return text.empty() || text == std::string(kHeader) + '\n';
}

std::vector<TestRecord> CampaignJournal::load(
    const std::filesystem::path& path) {
  std::vector<TestRecord> records;
  if (!std::filesystem::exists(path)) return records;
  bool torn_tail = false;
  const auto lines = split_lines(read_file(path), torn_tail);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == 0 && is_header_line(lines[i].text)) continue;
    TestRecord record;
    if (validate_record_line(lines[i].text, record)) {
      records.push_back(std::move(record));
    } else {
      TRACER_LOG(kWarn) << "journal " << path.string() << ": skipping "
                        << "invalid row " << i + 1;
    }
  }
  if (torn_tail) {
    TRACER_LOG(kWarn) << "journal " << path.string()
                      << ": ignoring torn final row";
  }
  return records;
}

JournalMerger::JournalMerger(std::filesystem::path path)
    : journal_(std::move(path)) {
  loaded_ = CampaignJournal::load(journal_.path());
  util::MutexLock lock(mutex_);  // uncontended; for the analysis
  for (const auto& record : loaded_) {
    seen_.insert(record.test_id);
  }
}

bool JournalMerger::append_unique(const TestRecord& record) {
  util::MutexLock lock(mutex_);
  if (seen_.count(record.test_id) != 0) {
    ++deduped_;
    return false;
  }
  journal_.append(record);
  seen_.insert(record.test_id);
  ++merged_;
  return true;
}

}  // namespace tracer::db
