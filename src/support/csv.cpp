#include "support/csv.hpp"

#include <charconv>
#include <cstdio>

namespace iw {

char* write_num(char* buf, double v) {
  return std::to_chars(buf, buf + kNumChars, v, std::chars_format::general,
                       12)
      .ptr;
}

std::string csv_num(double v) {
  char buf[kNumChars];
  return std::string(buf, write_num(buf, v));
}

std::string num17(double v) {
  char buf[kNumChars];
  return std::string(
      buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                         17)
               .ptr);
}

std::vector<std::string> split_commas(std::string_view text) {
  std::vector<std::string> out;
  for (;;) {
    const std::size_t comma = text.find(',');
    out.emplace_back(text.substr(0, comma));
    if (comma == std::string_view::npos) return out;
    text.remove_prefix(comma + 1);
  }
}

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
