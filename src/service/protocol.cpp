#include "service/protocol.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/csv.hpp"

namespace iw::service {
namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("request: " + message);
}

const json::Value& require(const json::Value& obj, const char* key,
                           json::Value::Kind kind, const char* kind_name) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) fail(std::string("missing \"") + key + "\"");
  if (!v->is(kind))
    fail(std::string("\"") + key + "\" must be a " + kind_name);
  return *v;
}

/// A JSON number as an integer of type T. Range-checked before the cast:
/// converting an out-of-range double is undefined behaviour, and narrowing
/// would silently wrap ("steps": 4294967306 must not run 10 steps).
template <typename T = std::int64_t>
T as_int(const json::Value& v, const char* key) {
  static_assert(std::is_integral_v<T>);
  if (!v.is(json::Value::Kind::number))
    fail(std::string("\"") + key + "\" must be a number");
  // T's range is [min, 2^digits): both bounds are exact doubles.
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(v.number >= lo && v.number < hi))
    fail(std::string("\"") + key + "\" is out of range [" +
         std::to_string(std::numeric_limits<T>::min()) + ", " +
         std::to_string(std::numeric_limits<T>::max()) + "]");
  const auto n = static_cast<T>(v.number);
  if (static_cast<double>(n) != v.number)
    fail(std::string("\"") + key + "\" must be an integer");
  return n;
}

std::uint64_t parse_u64(const std::string& text, const char* key) {
  const std::optional<std::uint64_t> value = parse_whole<std::uint64_t>(text);
  if (!value)
    fail(std::string("\"") + key + "\" must be a decimal u64 string");
  return *value;
}

/// One axis array on the wire: arithmetic axes as JSON numbers, enum axes
/// as their to_string names (matching the record schema's column form).
template <typename T>
std::string axis_to_json(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    if constexpr (std::is_same_v<T, double>) {
      out += num17(values[i]);
    } else if constexpr (std::is_arithmetic_v<T>) {
      out += std::to_string(values[i]);
    } else {
      out += json_str(sweep::AxisValue<T>::to_record(values[i]));
    }
  }
  out += ']';
  return out;
}

template <typename T>
std::vector<T> axis_from_json(const json::Value& arr, const char* column) {
  if (!arr.is(json::Value::Kind::array))
    fail(std::string("axis \"") + column + "\" must be an array");
  if (arr.items.empty())
    fail(std::string("axis \"") + column + "\" must be non-empty");
  std::vector<T> out;
  out.reserve(arr.items.size());
  for (const json::Value& item : arr.items) {
    if constexpr (std::is_same_v<T, double>) {
      if (!item.is(json::Value::Kind::number))
        fail(std::string("axis \"") + column + "\" values must be numbers");
      out.push_back(item.number);
    } else if constexpr (std::is_arithmetic_v<T>) {
      out.push_back(as_int<T>(item, column));
    } else {
      if (!item.is(json::Value::Kind::string))
        fail(std::string("axis \"") + column + "\" values must be strings");
      out.push_back(sweep::AxisValue<T>::parse(item.text));
    }
  }
  return out;
}

}  // namespace

std::string spec_to_json(const sweep::SweepSpec& spec) {
  std::vector<std::pair<std::string, std::string>> fields;
  fields.emplace_back("workload", json_str(sweep::to_string(spec.workload)));
  fields.emplace_back("steps", std::to_string(spec.steps));
  fields.emplace_back("texec_ns", std::to_string(spec.texec.ns()));
  fields.emplace_back("distance", std::to_string(spec.distance));
  fields.emplace_back("injection_step", std::to_string(spec.injection_step));
  fields.emplace_back("injection_at", num17(spec.injection_at));
  fields.emplace_back("min_idle_ns", std::to_string(spec.min_idle.ns()));
  fields.emplace_back("system_noise", json_str(spec.system_noise));
  fields.emplace_back("ffwd", json_str(spec.ffwd));
  fields.emplace_back("seed", json_str(std::to_string(spec.campaign_seed)));
  std::string axes = "{";
  bool first = true;
#define IW_AXIS_JSON(field, Type, flag, column, default_)  \
  if (!first) axes += ',';                                 \
  first = false;                                           \
  axes += "\"" column "\":";                               \
  axes += axis_to_json<Type>(spec.field);
  IW_SWEEP_AXES(IW_AXIS_JSON)
#undef IW_AXIS_JSON
  axes += '}';
  fields.emplace_back("axes", axes);
  return json_object(fields);
}

sweep::SweepSpec spec_from_json(const json::Value& v) {
  if (!v.is(json::Value::Kind::object)) fail("\"spec\" must be an object");
  sweep::SweepSpec spec;
  for (const auto& [key, value] : v.members) {
    if (key == "workload") {
      if (!value.is(json::Value::Kind::string))
        fail("\"workload\" must be a string");
      if (value.text == "ring")
        spec.workload = sweep::Workload::ring;
      else if (value.text == "grid2d")
        spec.workload = sweep::Workload::grid2d;
      else
        fail("unknown workload \"" + value.text + "\" (ring|grid2d)");
    } else if (key == "steps") {
      spec.steps = as_int<int>(value, "steps");
    } else if (key == "texec_ns") {
      spec.texec = Duration(as_int(value, "texec_ns"));
    } else if (key == "distance") {
      spec.distance = as_int<int>(value, "distance");
    } else if (key == "injection_step") {
      spec.injection_step = as_int<int>(value, "injection_step");
    } else if (key == "injection_at") {
      if (!value.is(json::Value::Kind::number))
        fail("\"injection_at\" must be a number");
      spec.injection_at = value.number;
    } else if (key == "min_idle_ns") {
      spec.min_idle = Duration(as_int(value, "min_idle_ns"));
    } else if (key == "system_noise") {
      if (!value.is(json::Value::Kind::string))
        fail("\"system_noise\" must be a string");
      spec.system_noise = value.text;
    } else if (key == "ffwd") {
      if (!value.is(json::Value::Kind::string))
        fail("\"ffwd\" must be a string");
      spec.ffwd = value.text;
    } else if (key == "seed") {
      if (!value.is(json::Value::Kind::string))
        fail("\"seed\" must be a quoted decimal string");
      spec.campaign_seed = parse_u64(value.text, "seed");
    } else if (key == "axes") {
      if (!value.is(json::Value::Kind::object))
        fail("\"axes\" must be an object");
      for (const auto& [column, arr] : value.members) {
        bool known = false;
#define IW_AXIS_PARSE(field, Type, flag, column_, default_) \
  if (!known && column == column_) {                        \
    spec.field = axis_from_json<Type>(arr, column_);        \
    known = true;                                           \
  }
        IW_SWEEP_AXES(IW_AXIS_PARSE)
#undef IW_AXIS_PARSE
        if (!known) fail("unknown axis \"" + column + "\"");
      }
    } else {
      fail("unknown spec key \"" + key + "\"");
    }
  }
  return spec;
}

Request parse_request(const std::string& line) {
  const json::Value doc = json::parse(line, "request");
  if (!doc.is(json::Value::Kind::object)) fail("must be a JSON object");
  const json::Value& type = require(doc, "type", json::Value::Kind::string,
                                    "string");
  Request req;
  if (type.text == "submit") {
    req.type = RequestType::submit;
    req.client =
        require(doc, "client", json::Value::Kind::string, "string").text;
    if (req.client.empty()) fail("\"client\" must be non-empty");
    if (const json::Value* prio = doc.find("priority"))
      req.priority = as_int<int>(*prio, "priority");
    req.spec = spec_from_json(
        require(doc, "spec", json::Value::Kind::object, "object"));
  } else if (type.text == "status") {
    req.type = RequestType::status;
  } else if (type.text == "cancel" || type.text == "results") {
    req.type = type.text == "cancel" ? RequestType::cancel
                                     : RequestType::results;
    const json::Value& job =
        require(doc, "job", json::Value::Kind::number, "number");
    const std::int64_t id = as_int(job, "job");
    if (id < 0) fail("\"job\" must be non-negative");
    req.job = static_cast<std::uint64_t>(id);
  } else if (type.text == "shutdown") {
    req.type = RequestType::shutdown;
  } else {
    fail("unknown type \"" + type.text +
         "\" (submit|status|cancel|results|shutdown)");
  }
  return req;
}

std::string submit_line(const std::string& client, int priority,
                        const sweep::SweepSpec& spec) {
  return json_object({{"type", json_str("submit")},
                      {"client", json_str(client)},
                      {"priority", std::to_string(priority)},
                      {"spec", spec_to_json(spec)}});
}

std::string status_line() { return json_object({{"type", json_str("status")}}); }

std::string cancel_line(std::uint64_t job) {
  return json_object(
      {{"type", json_str("cancel")}, {"job", std::to_string(job)}});
}

std::string results_line(std::uint64_t job) {
  return json_object(
      {{"type", json_str("results")}, {"job", std::to_string(job)}});
}

std::string shutdown_line() {
  return json_object({{"type", json_str("shutdown")}});
}

std::string error_response(const std::string& code,
                           const std::string& message) {
  return json_object({{"type", json_str("error")},
                      {"code", json_str(code)},
                      {"message", json_str(message)}});
}

std::string accepted_response(std::uint64_t job, std::size_t points,
                              std::size_t cached) {
  return json_object({{"type", json_str("accepted")},
                      {"job", std::to_string(job)},
                      {"points", std::to_string(points)},
                      {"cached", std::to_string(cached)}});
}

std::string done_response(std::uint64_t job, std::size_t records,
                          std::size_t cache_hits, std::size_t computed) {
  return json_object({{"type", json_str("done")},
                      {"job", std::to_string(job)},
                      {"records", std::to_string(records)},
                      {"cache_hits", std::to_string(cache_hits)},
                      {"computed", std::to_string(computed)}});
}

std::string cancelled_response(std::uint64_t job, std::size_t records) {
  return json_object({{"type", json_str("cancelled")},
                      {"job", std::to_string(job)},
                      {"records", std::to_string(records)}});
}

std::string cancel_ack_response(std::uint64_t job, bool accepted) {
  return json_object({{"type", json_str("cancel-ack")},
                      {"job", std::to_string(job)},
                      {"accepted", accepted ? "true" : "false"}});
}

std::string results_response(std::uint64_t job, std::size_t records) {
  return json_object({{"type", json_str("results")},
                      {"job", std::to_string(job)},
                      {"records", std::to_string(records)}});
}

std::string bye_response() { return json_object({{"type", json_str("bye")}}); }

bool is_record_line(const std::string& line) {
  return line.rfind("{\"index\":", 0) == 0;
}

}  // namespace iw::service
