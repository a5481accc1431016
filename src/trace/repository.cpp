#include "trace/repository.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "trace/blk_format.h"
#include "util/string_util.h"

namespace tracer::trace {

namespace {
std::string encode_stem(const TraceKey& key) {
  return key.device + "_rs" + util::format_size(key.request_size) + "_rnd" +
         std::to_string(key.random_pct) + "_rd" +
         std::to_string(key.read_pct);
}

/// The bijection check: encode, parse back, compare. Anything that does
/// not survive (empty device, '/' or '\' path separators, negative or
/// >100 percents, a device label that confuses the field splitter) is
/// rejected here instead of producing a file that list() would skip or
/// return under a different key.
std::string verified_file_name(const TraceKey& key) {
  if (key.device.empty()) {
    throw std::invalid_argument("TraceKey: device label must not be empty");
  }
  if (key.device.find('/') != std::string::npos ||
      key.device.find('\\') != std::string::npos) {
    throw std::invalid_argument(
        "TraceKey: device label must not contain path separators");
  }
  if (key.random_pct < 0 || key.random_pct > 100 || key.read_pct < 0 ||
      key.read_pct > 100) {
    throw std::invalid_argument("TraceKey: percents must be in 0..100");
  }
  const std::string name = encode_stem(key) + kBlkExtension;
  const std::optional<TraceKey> back = TraceKey::parse(name);
  if (!back.has_value() || !(*back == key)) {
    throw std::invalid_argument(
        "TraceKey: key does not round-trip through the file-name scheme: " +
        name);
  }
  return name;
}
}  // namespace

std::string TraceKey::file_name() const { return verified_file_name(*this); }

std::optional<TraceKey> TraceKey::parse(const std::string& file_name) {
  if (!util::ends_with(file_name, kBlkExtension)) return std::nullopt;
  const std::string stem = file_name.substr(
      0, file_name.size() - std::string(kBlkExtension).size());
  // Split from the right: the device label may itself contain '_'.
  const auto parts = util::split(stem, '_');
  if (parts.size() < 4) return std::nullopt;
  const std::string& rd = parts[parts.size() - 1];
  const std::string& rnd = parts[parts.size() - 2];
  const std::string& rs = parts[parts.size() - 3];
  if (!util::starts_with(rs, "rs") || !util::starts_with(rnd, "rnd") ||
      !util::starts_with(rd, "rd")) {
    return std::nullopt;
  }
  TraceKey key;
  std::uint64_t size = 0;
  std::uint64_t random_pct = 0;
  std::uint64_t read_pct = 0;
  if (!util::parse_size(rs.substr(2), size) ||
      !util::parse_u64(rnd.substr(3), random_pct) || random_pct > 100 ||
      !util::parse_u64(rd.substr(2), read_pct) || read_pct > 100) {
    return std::nullopt;
  }
  key.request_size = size;
  key.random_pct = static_cast<int>(random_pct);
  key.read_pct = static_cast<int>(read_pct);
  for (std::size_t i = 0; i + 3 < parts.size(); ++i) {
    if (i) key.device += '_';
    key.device += parts[i];
  }
  if (key.device.empty()) return std::nullopt;
  // Only accept names this scheme itself would emit: a parse that does not
  // re-encode to the same string (e.g. "rs4k" vs "rs4K", leading zeros in
  // a percent) is a foreign file, not an entry.
  if (encode_stem(key) != stem) return std::nullopt;
  return key;
}

TraceRepository::TraceRepository(std::filesystem::path directory)
    : directory_(std::move(directory)) {
  std::filesystem::create_directories(directory_);
}

std::filesystem::path TraceRepository::path_for(const TraceKey& key) const {
  return directory_ / key.file_name();
}

void TraceRepository::store(const TraceKey& key, const Trace& trace) const {
  // The temporary name is unique per writer (pid + per-process counter)
  // and ends in ".tmp", so TraceKey::parse rejects it and list() skips it.
  static std::atomic<std::uint64_t> next_temp{0};
  const auto path = path_for(key);
  auto temp = path;
  temp += "." + std::to_string(::getpid()) + "." +
          std::to_string(next_temp++) + ".tmp";
  try {
    write_blk_file(temp.string(), trace);
    std::filesystem::rename(temp, path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    throw;
  }
}

bool TraceRepository::contains(const TraceKey& key) const {
  return std::filesystem::exists(path_for(key));
}

Trace TraceRepository::load(const TraceKey& key) const {
  const auto path = path_for(key);
  if (!std::filesystem::exists(path)) {
    throw std::runtime_error("TraceRepository: no trace " + key.file_name());
  }
  return read_blk_file(path.string());
}

std::vector<TraceKey> TraceRepository::list() const {
  std::vector<std::pair<std::string, TraceKey>> found;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (auto key = TraceKey::parse(name)) {
      found.emplace_back(std::move(name), *key);
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<TraceKey> keys;
  keys.reserve(found.size());
  for (auto& [name, key] : found) keys.push_back(std::move(key));
  return keys;
}

}  // namespace tracer::trace
