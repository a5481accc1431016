#include "trace/blk_format.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "util/binary_io.h"

namespace tracer::trace {

namespace {
// On-disk record sizes (little-endian, packed — see the header comment).
constexpr std::size_t kBunchHeaderSize = 8 + 4;   // f64 timestamp | u32 count
constexpr std::size_t kPackageSize = 8 + 4 + 1;   // u64 | u32 | u8

void put_le(unsigned char* out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

std::uint64_t get_le(const unsigned char* in, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

// Bytes left between the current position and the end of the stream, or
// nullopt when the stream is not seekable (pipes). Used to bound declared
// counts before any allocation.
std::optional<std::uint64_t> remaining_stream_bytes(std::istream& in) {
  const std::istream::pos_type cur = in.tellg();
  if (cur == std::istream::pos_type(-1)) {
    in.clear();
    return std::nullopt;
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(cur);
  if (end == std::istream::pos_type(-1) || end < cur || !in.good()) {
    in.clear();
    in.seekg(cur);
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(end - cur);
}

// A NaN, infinite, or negative arrival time must never reach the DES heap
// or the interarrival arithmetic — reject it at the format boundary.
void validate_timestamp(Seconds timestamp, const char* who) {
  if (!std::isfinite(timestamp) || timestamp < 0.0) {
    throw std::runtime_error(std::string(who) +
                             ": invalid bunch timestamp (must be finite and "
                             ">= 0)");
  }
}

void read_blk_header(util::BinaryReader& reader, std::string& device,
                     std::uint64_t& bunch_count) {
  char magic[4];
  reader.raw(magic, sizeof(magic));
  if (std::memcmp(magic, kBlkMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("read_blk: bad magic (not a .replay trace)");
  }
  const std::uint16_t version = reader.u16();
  if (version != kBlkVersion) {
    throw std::runtime_error("read_blk: unsupported version " +
                             std::to_string(version));
  }
  device = reader.str();
  bunch_count = reader.u64();
  if (bunch_count > kMaxTraceBunches) {
    throw std::runtime_error("read_blk: implausible bunch count");
  }
}
}  // namespace

BlkStreamWriter::BlkStreamWriter(std::ostream& out, const std::string& device,
                                 std::uint64_t bunch_count)
    : out_(out), declared_(bunch_count) {
  if (bunch_count > kMaxTraceBunches) {
    throw std::invalid_argument("write_blk: too many bunches");
  }
  util::BinaryWriter writer(out_);
  writer.raw(kBlkMagic, sizeof(kBlkMagic));
  writer.u16(kBlkVersion);
  writer.str(device);
  writer.u64(bunch_count);
  if (!writer.good()) {
    throw std::runtime_error("write_blk: stream write failed");
  }
}

void BlkStreamWriter::add(const Bunch& bunch) {
  add(bunch.timestamp, bunch.packages);
}

void BlkStreamWriter::add(Seconds timestamp,
                          const std::vector<IoPackage>& packages) {
  if (written_ >= declared_) {
    throw std::runtime_error("write_blk: more bunches than declared");
  }
  if (!std::isfinite(timestamp) || timestamp < 0.0) {
    throw std::invalid_argument(
        "write_blk: invalid bunch timestamp (must be finite and >= 0)");
  }
  if (packages.size() > kMaxPackagesPerBunch) {
    throw std::invalid_argument("write_blk: too many packages in bunch");
  }
  // Encode the bunch (header + package array) into a reusable scratch
  // buffer and write it with a single call, instead of one stream write
  // per field.
  scratch_.resize(kBunchHeaderSize + packages.size() * kPackageSize);
  unsigned char* cursor = scratch_.data();
  std::uint64_t timestamp_bits;
  std::memcpy(&timestamp_bits, &timestamp, sizeof(timestamp_bits));
  put_le(cursor, timestamp_bits, 8);
  put_le(cursor + 8, static_cast<std::uint32_t>(packages.size()), 4);
  cursor += kBunchHeaderSize;
  for (const auto& pkg : packages) {
    put_le(cursor, pkg.sector, 8);
    put_le(cursor + 8, static_cast<std::uint32_t>(pkg.bytes), 4);
    cursor[12] = static_cast<unsigned char>(pkg.op);
    cursor += kPackageSize;
  }
  out_.write(reinterpret_cast<const char*>(scratch_.data()),
             static_cast<std::streamsize>(scratch_.size()));
  if (!out_.good()) {
    throw std::runtime_error("write_blk: stream write failed");
  }
  ++written_;
}

void BlkStreamWriter::finish() {
  if (finished_) {
    throw std::runtime_error("write_blk: finish() called twice");
  }
  if (written_ != declared_) {
    throw std::runtime_error("write_blk: wrote " + std::to_string(written_) +
                             " of " + std::to_string(declared_) +
                             " declared bunches");
  }
  out_.flush();
  if (!out_.good()) {
    throw std::runtime_error("write_blk: stream write failed");
  }
  finished_ = true;
}

void write_blk(std::ostream& out, const Trace& trace) {
  BlkStreamWriter writer(out, trace.device, trace.bunches.size());
  for (const auto& bunch : trace.bunches) {
    writer.add(bunch);
  }
  writer.finish();
}

void write_blk_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("write_blk_file: cannot open " + path);
  write_blk(out, trace);
}

BlkStreamReader::BlkStreamReader(std::istream& in) : in_(in) {
  util::BinaryReader reader(in_);
  read_blk_header(reader, device_, bunch_count_);
  // Bound the declared count by what the stream can actually hold BEFORE
  // any allocation: every bunch needs at least a 12-byte header, so a
  // 13-byte truncated file can never demand a multi-GB reserve.
  budget_ = remaining_stream_bytes(in_);
  if (budget_.has_value() &&
      bunch_count_ > *budget_ / kBunchHeaderSize) {
    throw std::runtime_error(
        "read_blk: declared bunch count exceeds the remaining stream size");
  }
}

bool BlkStreamReader::next(Bunch& out) {
  if (next_index_ >= bunch_count_) return false;
  util::BinaryReader reader(in_);
  unsigned char header[kBunchHeaderSize];
  reader.raw(header, sizeof(header));
  if (budget_.has_value()) {
    *budget_ -= std::min<std::uint64_t>(*budget_, kBunchHeaderSize);
  }
  const std::uint64_t timestamp_bits = get_le(header, 8);
  std::memcpy(&out.timestamp, &timestamp_bits, sizeof(out.timestamp));
  validate_timestamp(out.timestamp, "read_blk");
  const auto package_count = static_cast<std::uint32_t>(get_le(header + 8, 4));
  if (package_count > kMaxPackagesPerBunch) {
    throw std::runtime_error("read_blk: implausible package count");
  }
  const std::uint64_t payload =
      static_cast<std::uint64_t>(package_count) * kPackageSize;
  if (budget_.has_value() && payload > *budget_) {
    throw std::runtime_error(
        "read_blk: declared package count exceeds the remaining stream size");
  }
  // One bulk read for the whole package array, then decode in memory.
  scratch_.resize(static_cast<std::size_t>(payload));
  reader.raw(scratch_.data(), scratch_.size());
  if (budget_.has_value()) *budget_ -= payload;
  out.packages.clear();
  out.packages.reserve(package_count);
  const unsigned char* cursor = scratch_.data();
  for (std::uint32_t p = 0; p < package_count; ++p) {
    IoPackage pkg;
    pkg.sector = get_le(cursor, 8);
    pkg.bytes = static_cast<std::uint32_t>(get_le(cursor + 8, 4));
    const unsigned char op = cursor[12];
    if (op > 1) throw std::runtime_error("read_blk: bad op code");
    pkg.op = static_cast<OpType>(op);
    out.packages.push_back(pkg);
    cursor += kPackageSize;
  }
  ++next_index_;
  return true;
}

Trace read_blk(std::istream& in) {
  BlkStreamReader reader(in);
  Trace trace;
  trace.device = reader.device();
  // The stream-size bound above makes this reserve safe; when the stream
  // is unseekable the vector grows geometrically instead.
  if (reader.bunch_count() <= kMaxTraceBunches &&
      in.tellg() != std::istream::pos_type(-1)) {
    trace.bunches.reserve(reader.bunch_count());
  }
  Bunch bunch;
  while (reader.next(bunch)) {
    trace.bunches.push_back(std::move(bunch));
    bunch = Bunch{};
  }
  return trace;
}

Trace read_blk_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_blk_file: cannot open " + path);
  return read_blk(in);
}

}  // namespace tracer::trace
