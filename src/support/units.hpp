// Human-readable unit formatting for durations.
#pragma once

#include <string>

#include "support/time.hpp"

namespace iw {

/// "1.50 ms", "640 ns", "2.40 us", "3.200 s" — picks the natural scale.
[[nodiscard]] std::string fmt_duration(Duration d);

}  // namespace iw
