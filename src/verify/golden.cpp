#include "verify/golden.hpp"

#include <fstream>
#include <stdexcept>

#include "support/csv.hpp"

namespace iw::verify {
namespace {

constexpr char kMagic[] = "# iw-golden";

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("golden corpus " + path + ": " + what);
}

/// Parses "key=value" tokens of the header line after the magic prefix.
std::string header_value(const std::string& path, const std::string& header,
                         const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t at = header.find(needle);
  if (at == std::string::npos) fail(path, "header is missing '" + key + "='");
  const std::size_t begin = at + needle.size();
  const std::size_t end = header.find(' ', begin);
  return header.substr(begin, end == std::string::npos ? std::string::npos
                                                       : end - begin);
}

}  // namespace

std::string golden_path(const std::string& dir, const std::string& scenario) {
  return dir + "/" + scenario + ".csv";
}

void write_golden(const std::string& path, const std::string& scenario,
                  const std::vector<sweep::SweepRecord>& records) {
  // Format everything before opening the file: a record the codec rejects
  // leaves no half-written golden behind.
  std::string text = std::string(kMagic) +
                     " schema=" + std::to_string(kGoldenSchemaVersion) +
                     " scenario=" + scenario +
                     " points=" + std::to_string(records.size()) + '\n' +
                     sweep::csv_header() + '\n';
  try {
    for (const sweep::SweepRecord& rec : records) {
      sweep::append_csv_row(text, rec);
      text += '\n';
    }
  } catch (const std::invalid_argument& e) {
    fail(path, e.what());
  }
  std::ofstream out(path);
  if (!out) fail(path, "cannot open for writing");
  out << text;
  if (!out) fail(path, "write failed");
}

GoldenCorpus load_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail(path, "cannot open (run verify_runner --update-goldens?)");

  GoldenCorpus corpus;
  std::string line;
  if (!std::getline(in, line) || line.rfind(kMagic, 0) != 0)
    fail(path, "missing '# iw-golden' header line");
  const auto version = parse_whole<int>(header_value(path, line, "schema"));
  if (!version) fail(path, "unparsable schema version");
  corpus.schema_version = *version;
  if (corpus.schema_version != kGoldenSchemaVersion)
    fail(path, "schema version " + std::to_string(corpus.schema_version) +
                   " != supported " + std::to_string(kGoldenSchemaVersion));
  corpus.scenario = header_value(path, line, "scenario");
  const auto declared_points =
      parse_whole<std::size_t>(header_value(path, line, "points"));
  if (!declared_points) fail(path, "unparsable points count");

  if (!std::getline(in, line)) fail(path, "missing column header row");
  if (line != sweep::csv_header())
    fail(path,
         "column drift against the current record schema — refresh with "
         "--update-goldens");

  std::size_t row_no = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++row_no;
    // The codec never quotes (it rejects text that would need it), so a
    // bare comma split is exact and a quote means a foreign file.
    if (line.find('"') != std::string::npos)
      fail(path, "quoted CSV fields are not part of the golden format");
    try {
      corpus.records.push_back(sweep::record_from_row(split_commas(line)));
    } catch (const std::invalid_argument& e) {
      fail(path, "row " + std::to_string(row_no) + ": " + e.what());
    }
  }
  if (corpus.records.size() != *declared_points)
    fail(path, "header declares " + std::to_string(*declared_points) +
                   " points but file holds " +
                   std::to_string(corpus.records.size()));
  return corpus;
}

}  // namespace iw::verify
