#include "util/csv.h"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/string_util.h"

namespace tracer::util {

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

CsvWriter::RowBuilder& CsvWriter::RowBuilder::add(std::string_view s) {
  fields_.emplace_back(s);
  return *this;
}

CsvWriter::RowBuilder& CsvWriter::RowBuilder::add(double v, int precision) {
  fields_.push_back(format("%.*f", precision, v));
  return *this;
}

CsvWriter::RowBuilder& CsvWriter::RowBuilder::add_lossless(double v) {
  fields_.push_back(format_lossless(v));
  return *this;
}

CsvWriter::RowBuilder& CsvWriter::RowBuilder::add(std::uint64_t v) {
  fields_.push_back(std::to_string(v));
  return *this;
}

CsvWriter::RowBuilder& CsvWriter::RowBuilder::add(std::int64_t v) {
  fields_.push_back(std::to_string(v));
  return *this;
}

void CsvWriter::RowBuilder::done() { writer_.write_row(fields_); }

std::vector<std::vector<std::string>> CsvReader::parse(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    if (field_started || !field.empty() || !row.empty()) {
      end_field();
      rows.push_back(std::move(row));
      row.clear();
    }
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        field_started = true;  // note the delimiter so trailing empties count
        end_field();
        field_started = true;
        break;
      case '\r':
        break;
      case '\n':
        end_row();
        break;
      default:
        field += c;
        field_started = true;
        break;
    }
  }
  end_row();
  return rows;
}

std::vector<std::vector<std::string>> CsvReader::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("CsvReader: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

}  // namespace tracer::util
