#include "support/csv.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace iw {
namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n") != std::string::npos;
}

std::string quote(const std::string& field) {
  if (!needs_quoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvWriter::CsvWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("cannot open CSV output: " + path);
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << quote(fields[i]);
  }
  out_ << '\n';
}

std::string csv_num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

JsonlWriter::JsonlWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("cannot open JSONL output: " + path);
}

void JsonlWriter::raw_line(const std::string& json) { out_ << json << '\n'; }

std::string json_object(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out += ',';
    out += json_str(fields[i].first);
    out += ':';
    out += fields[i].second;
  }
  out += '}';
  return out;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace iw
