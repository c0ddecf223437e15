// Test helper: field-by-field equality of two wave analyses. Both sides
// come from the same arithmetic on equal trace content, so every double
// must match exactly, not within a tolerance.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/idle_wave.hpp"

namespace iw::core {

inline void expect_same_fit(const LineFit& a, const LineFit& b,
                            const std::string& where) {
  EXPECT_EQ(a.slope, b.slope) << where;
  EXPECT_EQ(a.intercept, b.intercept) << where;
  EXPECT_EQ(a.r2, b.r2) << where;
  EXPECT_EQ(a.rmse, b.rmse) << where;
  EXPECT_EQ(a.n, b.n) << where;
  EXPECT_EQ(a.valid, b.valid) << where;
}

inline void expect_same_analysis(const WaveAnalysis& a, const WaveAnalysis& b,
                                 const std::string& where) {
  EXPECT_EQ(a.hops_probed, b.hops_probed) << where;
  ASSERT_EQ(a.front.size(), b.front.size()) << where;
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    const WaveObservation& oa = a.front[i];
    const WaveObservation& ob = b.front[i];
    const std::string at = where + " front entry " + std::to_string(i);
    EXPECT_EQ(oa.rank, ob.rank) << at;
    EXPECT_EQ(oa.hops, ob.hops) << at;
    EXPECT_EQ(oa.arrival, ob.arrival) << at;
    EXPECT_EQ(oa.amplitude, ob.amplitude) << at;
  }
  expect_same_fit(a.front_fit, b.front_fit, where + " front fit");
  expect_same_fit(a.amplitude_fit, b.amplitude_fit, where + " amplitude fit");
  EXPECT_EQ(a.speed_ranks_per_sec, b.speed_ranks_per_sec) << where;
  EXPECT_EQ(a.decay_us_per_rank, b.decay_us_per_rank) << where;
  EXPECT_EQ(a.survival_hops, b.survival_hops) << where;
  EXPECT_EQ(a.front_valid, b.front_valid) << where;
  EXPECT_EQ(a.front_rmse_us, b.front_rmse_us) << where;
  EXPECT_EQ(a.amplitude_rmse_us, b.amplitude_rmse_us) << where;
}

}  // namespace iw::core
