// CSV reading/writing for experiment output and the results database's
// export path. RFC-4180-ish: quotes fields containing commas/quotes/newlines.
#pragma once

#include <fstream>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace tracer::util {

/// Streaming CSV writer over any std::ostream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  /// Write one row; fields are escaped as needed.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience for mixed numeric/string rows.
  class RowBuilder {
   public:
    explicit RowBuilder(CsvWriter& writer) : writer_(writer) {}
    RowBuilder& add(std::string_view s);
    RowBuilder& add(double v, int precision = 6);
    /// %.17g (format_lossless): round-trips every finite double exactly.
    /// Use this (not a display precision) whenever the row will be parsed
    /// back — journals and databases are codecs, not reports
    /// (tracer-lossless-double-format in docs/STATIC_ANALYSIS.md).
    RowBuilder& add_lossless(double v);
    RowBuilder& add(std::uint64_t v);
    RowBuilder& add(std::int64_t v);
    void done();

   private:
    CsvWriter& writer_;
    std::vector<std::string> fields_;
  };

  RowBuilder row() { return RowBuilder(*this); }

 private:
  static std::string escape(std::string_view field);
  std::ostream& out_;
};

/// Whole-file CSV reader (experiment result files are small).
class CsvReader {
 public:
  /// Parse CSV text into rows of fields. Handles quoted fields with embedded
  /// commas, escaped quotes (""), and CRLF line endings.
  static std::vector<std::vector<std::string>> parse(std::string_view text);

  /// Load and parse a file; throws std::runtime_error when unreadable.
  static std::vector<std::vector<std::string>> load(const std::string& path);
};

}  // namespace tracer::util
