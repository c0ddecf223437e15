// Shared helpers for the perf_* benches and idlewave_bench.
#pragma once

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/check.hpp"
#include "support/json.hpp"

namespace iw::bench {

/// Non-null when this binary was built with instrumentation that poisons
/// timings: a sanitizer (the IW_SANITIZE CMake option, or raw -fsanitize
/// flags detected via compiler macros) or the IDLEWAVE_AUDIT invariant
/// layer. Returns a human-readable reason.
inline const char* instrumented_build_reason() {
#if defined(IW_SANITIZE_BUILD)
  return "sanitizer build (IW_SANITIZE=" IW_SANITIZE_BUILD ")";
#elif defined(__SANITIZE_ADDRESS__)
  return "AddressSanitizer build";
#elif defined(__SANITIZE_THREAD__)
  return "ThreadSanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "AddressSanitizer build";
#elif __has_feature(thread_sanitizer)
  return "ThreadSanitizer build";
#elif __has_feature(memory_sanitizer)
  return "MemorySanitizer build";
#endif
#endif
  if (iw::check::kAuditEnabled) return "IDLEWAVE_AUDIT build";
  return nullptr;
}

/// Baseline-recording benches (perf_*) call this first: an instrumented
/// build must never write a BENCH_*.json — a 2-70x sanitizer/audit slowdown
/// recorded as a baseline would make every later A/B comparison lie.
/// Returns the exit code to propagate (0 = clean build, proceed).
inline int refuse_if_instrumented(const char* bench_name) {
  const char* why = instrumented_build_reason();
  if (why == nullptr) return 0;
  std::cerr << bench_name << ": refusing to run: this is a " << why
            << ", and its timings must not be recorded as a BENCH_*.json "
               "baseline.\nRe-build without instrumentation (preset "
               "'release') to measure; sanitizer/audit runs should drive "
               "the test suite and the verify/sweep runners instead.\n";
  return 2;
}

/// A parsed JSON artifact, such as a checked-in BENCH_*.json baseline. The
/// accessors take a dotted path ("summary.top_np") and throw naming the
/// file and the field when it is absent or of another kind.
class JsonFile {
 public:
  explicit JsonFile(const std::string& path) : path_(path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    doc_ = json::parse(text.str(), path);
  }

  [[nodiscard]] double number(const std::string& field) const {
    return at(field, json::Value::Kind::number).number;
  }
  [[nodiscard]] const std::string& text(const std::string& field) const {
    return at(field, json::Value::Kind::string).text;
  }

 private:
  const json::Value& at(const std::string& field,
                        json::Value::Kind kind) const {
    const json::Value* v = &doc_;
    for (std::size_t begin = 0; v != nullptr;) {
      const std::size_t dot = field.find('.', begin);
      v = v->find(field.substr(begin, dot - begin));
      if (dot == std::string::npos) break;
      begin = dot + 1;
    }
    if (v == nullptr || !v->is(kind))
      throw std::runtime_error(path_ + " lacks field " + field);
    return *v;
  }

  std::string path_;
  json::Value doc_;
};

inline void print_header(const std::string& title, const std::string& what) {
  std::cout << "=====================================================\n"
            << title << "\n" << what << "\n"
            << "=====================================================\n\n";
}

/// Runs a bench entry point with clean error reporting (bad flags and
/// failed contracts print a one-line message instead of terminating).
inline int guarded_main(int (*fn)(int, char**), int argc, char** argv) {
  try {
    return fn(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << (argc > 0 ? argv[0] : "bench") << ": error: " << e.what()
              << "\n";
    return 1;
  }
}

}  // namespace iw::bench
