#include "sweep/record.hpp"

#include <charconv>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace iw::sweep {
namespace {

// ---- typed accessors ------------------------------------------------------
// One ColumnDef per SweepRecord member: static metadata plus the typed
// writer, parser, comparison and numeric view of that member. The table
// below is the only place a column exists; everything else derives from it.

struct ColumnDef {
  ColumnMeta meta;
  void (*append)(std::string&, const SweepRecord&);
  void (*set)(SweepRecord&, const std::string&);
  bool (*equal)(const SweepRecord&, const SweepRecord&);
  double (*number)(const SweepRecord&);
};

/// A text value every sink can write verbatim: no CSV quoting, no JSON
/// escaping.
bool is_bare_token(const std::string& text) {
  for (const char c : text)
    if (c == ',' || c == '"' || c == '\\' ||
        static_cast<unsigned char>(c) < 0x20)
      return false;
  return true;
}

template <typename T>
void append_integer(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

template <auto Member>
void append_field(std::string& out, const SweepRecord& rec) {
  using T = std::remove_cvref_t<decltype(rec.*Member)>;
  const T& v = rec.*Member;
  if constexpr (std::is_same_v<T, std::string>) {
    if (!is_bare_token(v))
      throw std::invalid_argument("text value '" + v +
                                  "' would need CSV quoting or JSON escaping");
    out += v;
  } else if constexpr (std::is_same_v<T, double>) {
    char buf[kNumChars];
    out.append(buf, write_num(buf, v));
  } else {
    append_integer(out, v);
  }
}

template <auto Member>
bool equal_field(const SweepRecord& a, const SweepRecord& b) {
  using T = std::remove_cvref_t<decltype(a.*Member)>;
  if constexpr (std::is_same_v<T, double>) {
    // The printed text, so -0 vs 0 differs and nan matches nan, exactly as
    // two sink files would.
    char x[kNumChars], y[kNumChars];
    return std::string_view(x, write_num(x, a.*Member)) ==
           std::string_view(y, write_num(y, b.*Member));
  } else {
    return a.*Member == b.*Member;
  }
}

template <auto Member>
double number_field(const SweepRecord& rec) {
  using T = std::remove_cvref_t<decltype(rec.*Member)>;
  if constexpr (std::is_same_v<T, std::string>) {
    throw std::invalid_argument("text column has no numeric value");
  } else if constexpr (std::is_same_v<T, double>) {
    // Rounded to the printed 12 significant digits; a NaN stays a NaN.
    char buf[kNumChars];
    const std::string_view printed(buf, write_num(buf, rec.*Member));
    return parse_whole<double>(printed).value_or(rec.*Member);
  } else {
    return static_cast<double>(rec.*Member);
  }
}

template <auto Member>
void set_field(SweepRecord& rec, const std::string& text) {
  using T = std::remove_cvref_t<decltype(rec.*Member)>;
  if constexpr (std::is_same_v<T, std::string>) {
    rec.*Member = text;
  } else {
    const std::optional<T> v = parse_whole<T>(text);
    if (!v) throw std::invalid_argument("not a whole value of the column type");
    rec.*Member = *v;
  }
}

template <auto Member>
constexpr ColumnDef col(const char* name, ColumnType type,
                        ColumnTolerance tol, bool json_quoted = false) {
  return ColumnDef{{name, type, tol, json_quoted},
                   &append_field<Member>, &set_field<Member>,
                   &equal_field<Member>, &number_field<Member>};
}

constexpr auto kExact = ColumnTolerance::exact;
constexpr auto kApprox = ColumnTolerance::approx;

/// Schema type of an axis column, from its record representation. Enum
/// axes serialize as text and get JSON quoting like any other string.
template <typename T>
constexpr ColumnType axis_column_type() {
  using R = axis_record_t<T>;
  if constexpr (std::is_same_v<R, std::string>) return ColumnType::text;
  else if constexpr (std::is_same_v<R, double>) return ColumnType::f64;
  else if constexpr (std::is_same_v<R, std::int64_t>) return ColumnType::i64;
  else if constexpr (std::is_same_v<R, std::uint64_t>) return ColumnType::u64;
  else {
    static_assert(std::is_same_v<R, int>, "unmapped axis record type");
    return ColumnType::i32;
  }
}

template <typename T>
constexpr bool axis_quoted() {
  return std::is_same_v<axis_record_t<T>, std::string>;
}

const std::vector<ColumnDef>& column_table() {
  static const std::vector<ColumnDef> table = {
      col<&SweepRecord::index>("index", ColumnType::u64, kExact),
// Axis columns come straight from the IW_SWEEP_AXES registry, in axis
// declaration order; all axes are exact-match identity columns.
#define IW_AXIS_COL(field, Type, flag, column, default_)                 \
  col<&SweepRecord::field>(column, axis_column_type<Type>(), kExact,     \
                           axis_quoted<Type>()),
      IW_SWEEP_AXES(IW_AXIS_COL)
#undef IW_AXIS_COL
      col<&SweepRecord::workload>("workload", ColumnType::text, kExact, true),
      col<&SweepRecord::seed>("seed", ColumnType::u64, kExact, true),
      col<&SweepRecord::protocol>("protocol", ColumnType::text, kExact, true),
      col<&SweepRecord::v_up_ranks_per_sec>("v_up_ranks_per_sec",
                                            ColumnType::f64, kApprox),
      col<&SweepRecord::v_down_ranks_per_sec>("v_down_ranks_per_sec",
                                              ColumnType::f64, kApprox),
      col<&SweepRecord::v_eq2_ranks_per_sec>("v_eq2_ranks_per_sec",
                                             ColumnType::f64, kApprox),
      col<&SweepRecord::decay_up_us_per_rank>("decay_up_us_per_rank",
                                              ColumnType::f64, kApprox),
      col<&SweepRecord::survival_up_hops>("survival_up_hops", ColumnType::i32,
                                          kExact),
      col<&SweepRecord::survival_down_hops>("survival_down_hops",
                                            ColumnType::i32, kExact),
      col<&SweepRecord::front_r2_up>("front_r2_up", ColumnType::f64, kApprox),
      col<&SweepRecord::front_rmse_up_us>("front_rmse_up_us", ColumnType::f64,
                                          kApprox),
      col<&SweepRecord::cycle_us>("cycle_us", ColumnType::f64, kApprox),
      col<&SweepRecord::makespan_ms>("makespan_ms", ColumnType::f64, kApprox),
      col<&SweepRecord::eager_demotions>("eager_demotions", ColumnType::u64,
                                         kExact),
// Protocol-counter columns come from the IW_METRIC_COLUMNS registry; all
// are exact-match uint64 counters named after their record member.
#define IW_METRIC_COL(field) \
  col<&SweepRecord::field>(#field, ColumnType::u64, kExact),
      IW_METRIC_COLUMNS(IW_METRIC_COL)
#undef IW_METRIC_COL
      col<&SweepRecord::events_processed>("events_processed", ColumnType::u64,
                                          kExact),
      col<&SweepRecord::peak_events_pending>("peak_events_pending",
                                             ColumnType::u64, kExact),
      col<&SweepRecord::ffwd_skips>("ffwd_skips", ColumnType::u64, kExact),
      col<&SweepRecord::ffwd_time_skipped_us>("ffwd_time_skipped_us",
                                              ColumnType::u64, kExact),
  };
  return table;
}

constexpr std::string_view kJsonIndexPrefix = "{\"index\":";

}  // namespace

const std::vector<ColumnMeta>& record_schema() {
  static const std::vector<ColumnMeta> schema = [] {
    std::vector<ColumnMeta> metas;
    for (const ColumnDef& def : column_table()) metas.push_back(def.meta);
    return metas;
  }();
  return schema;
}

std::optional<std::size_t> column_index(const std::string& name) {
  const auto& table = column_table();
  for (std::size_t i = 0; i < table.size(); ++i)
    if (name == table[i].meta.name) return i;
  return std::nullopt;
}

std::string column_value(const SweepRecord& rec, std::size_t col) {
  std::string out;
  column_table().at(col).append(out, rec);
  return out;
}

bool column_equal(const SweepRecord& a, const SweepRecord& b,
                  std::size_t col) {
  return column_table().at(col).equal(a, b);
}

double column_number(const SweepRecord& rec, std::size_t col) {
  return column_table().at(col).number(rec);
}

void set_column(SweepRecord& rec, std::size_t col, const std::string& text) {
  const ColumnDef& def = column_table().at(col);
  try {
    def.set(rec, text);
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("column '") + def.meta.name +
                                "': cannot parse '" + text + "': " + e.what());
  }
}

SweepRecord record_from_row(const std::vector<std::string>& row) {
  const auto& table = column_table();
  if (row.size() != table.size())
    throw std::invalid_argument(
        "record row has " + std::to_string(row.size()) + " fields, schema has " +
        std::to_string(table.size()));
  SweepRecord rec;
  for (std::size_t i = 0; i < table.size(); ++i) set_column(rec, i, row[i]);
  return rec;
}

std::string csv_header() {
  std::string out;
  for (const ColumnDef& def : column_table()) {
    if (!out.empty()) out += ',';
    out += def.meta.name;
  }
  return out;
}

void append_record_values(std::string& out, const SweepRecord& rec) {
  const auto& table = column_table();
  for (std::size_t c = 1; c < table.size(); ++c) {
    if (c > 1) out += ',';
    table[c].append(out, rec);
  }
}

void append_csv_row(std::string& out, const SweepRecord& rec) {
  column_table().front().append(out, rec);  // index
  out += ',';
  append_record_values(out, rec);
}

void append_json_line(std::string& out, const SweepRecord& rec) {
  // Column names are bare identifiers, so they need no JSON escaping.
  char sep = '{';
  for (const ColumnDef& def : column_table()) {
    out += sep;
    sep = ',';
    out += '"';
    out += def.meta.name;
    out += "\":";
    if (def.meta.json_quoted) out += '"';
    def.append(out, rec);
    if (def.meta.json_quoted) out += '"';
  }
  out += '}';
}

std::string record_json_line(const SweepRecord& rec) {
  std::string out;
  append_json_line(out, rec);
  return out;
}

void append_json_from_values(std::string& out, std::string_view values,
                             std::uint64_t index) {
  const auto& table = column_table();
  // What the line adds to the values: names, quotes, separators, braces.
  static const std::size_t frame_bytes = [&table] {
    std::size_t n = kJsonIndexPrefix.size() + 20 + 1;
    for (const ColumnDef& def : table)
      n += std::strlen(def.meta.name) +
           (def.meta.json_quoted ? std::size_t{6} : std::size_t{4});
    return n;
  }();
  // One allocation for a fresh line (the service's per-record output).
  if (out.empty()) out.reserve(frame_bytes + values.size());
  out += kJsonIndexPrefix;
  append_integer(out, index);
  std::size_t pos = 0;
  for (std::size_t c = 1; c < table.size(); ++c) {
    const bool last = c + 1 == table.size();
    std::size_t end = values.find(',', pos);
    IW_REQUIRE(last == (end == std::string_view::npos),
               "stored record values do not hold one field per column");
    if (last) end = values.size();
    const ColumnMeta& meta = table[c].meta;
    out += ",\"";
    out += meta.name;
    out += "\":";
    if (meta.json_quoted) out += '"';
    out += values.substr(pos, end - pos);
    if (meta.json_quoted) out += '"';
    pos = end + 1;
  }
  out += '}';
}

SweepRecord reduce(const SweepPoint& point, const core::WaveResult& result) {
  SweepRecord rec;
  rec.index = point.index;
#define IW_AXIS_REDUCE(field, Type, flag, column, default_) \
  rec.field = AxisValue<Type>::to_record(point.field);
  IW_SWEEP_AXES(IW_AXIS_REDUCE)
#undef IW_AXIS_REDUCE
  rec.workload = to_string(point.workload);
  rec.seed = point.exp.cluster.seed;
  rec.protocol = result.protocol == mpi::WireProtocol::rendezvous
                     ? "rendezvous"
                     : "eager";
  rec.v_up_ranks_per_sec = result.up.speed_ranks_per_sec;
  rec.v_down_ranks_per_sec = result.down.speed_ranks_per_sec;
  rec.v_eq2_ranks_per_sec = result.predicted_speed;
  rec.decay_up_us_per_rank = result.up.decay_us_per_rank;
  rec.survival_up_hops = result.up.survival_hops;
  rec.survival_down_hops = result.down.survival_hops;
  rec.front_r2_up = result.up.front_fit.r2;
  rec.front_rmse_up_us = result.up.front_rmse_us;
  rec.cycle_us = result.measured_cycle.us();
  rec.makespan_ms = result.trace.makespan().ms();
  rec.eager_demotions = result.eager_demotions;
#define IW_METRIC_REDUCE(field) rec.field = result.field;
  IW_METRIC_COLUMNS(IW_METRIC_REDUCE)
#undef IW_METRIC_REDUCE
  rec.events_processed = result.events_processed;
  rec.peak_events_pending = result.peak_events_pending;
  rec.ffwd_skips = result.ffwd_skips;
  rec.ffwd_time_skipped_us =
      static_cast<std::uint64_t>(result.ffwd_time_skipped.ns() / 1000);
  return rec;
}

CsvSink::CsvSink(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("cannot open CSV output: " + path);
  out_ << csv_header() << '\n';
}

void CsvSink::write(const SweepRecord& rec) {
  line_.clear();
  append_csv_row(line_, rec);
  line_ += '\n';
  out_ << line_;
}

JsonlSink::JsonlSink(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("cannot open JSONL output: " + path);
}

void JsonlSink::write(const SweepRecord& rec) {
  line_.clear();
  append_json_line(line_, rec);
  line_ += '\n';
  out_ << line_;
}

std::string render_summary(const std::vector<SweepRecord>& records) {
  TextTable table;
  table.columns({"protocol", "points", "median v_up [ranks/s]",
                 "median decay [us/rank]", "median survival [hops]",
                 "events total"});
  for (const char* proto : {"eager", "rendezvous"}) {
    std::vector<double> v, decay, survival;
    std::uint64_t events = 0;
    for (const SweepRecord& r : records) {
      if (r.protocol != proto) continue;
      v.push_back(r.v_up_ranks_per_sec);
      decay.push_back(r.decay_up_us_per_rank);
      survival.push_back(static_cast<double>(r.survival_up_hops));
      events += r.events_processed;
    }
    if (v.empty()) continue;
    table.add_row({proto, std::to_string(v.size()), fmt_fixed(median(v), 1),
                   fmt_fixed(median(decay), 1), fmt_fixed(median(survival), 0),
                   std::to_string(events)});
  }
  if (table.rows() == 0) table.add_row({"(no records)"});
  return table.render();
}

}  // namespace iw::sweep
