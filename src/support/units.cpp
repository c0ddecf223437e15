#include "support/units.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

namespace iw {
namespace {

std::string with_unit(double value, const char* unit, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << value << ' ' << unit;
  return os.str();
}

}  // namespace

std::string fmt_duration(Duration d) {
  const double ns = static_cast<double>(d.ns());
  const double mag = std::abs(ns);
  if (mag < 1e3) return with_unit(ns, "ns", 0);
  if (mag < 1e6) return with_unit(ns / 1e3, "us", 2);
  if (mag < 1e9) return with_unit(ns / 1e6, "ms", 2);
  return with_unit(ns / 1e9, "s", 3);
}

}  // namespace iw
