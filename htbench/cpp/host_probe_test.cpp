// Tests of the host-speed probe and the reference-host scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "host_probe.hpp"

namespace {

TEST(HostScale, ReferenceProbeTimeIsUnitScale) {
  EXPECT_DOUBLE_EQ(htbench::host_scale(htbench::kReferenceProbeS, 1.5), 1.0);
}

TEST(HostScale, SlowerProbeScalesBySensitivity) {
  // A probe twice as slow as the reference means a workload of
  // sensitivity 1.5 runs 2^1.5 times slower than on the reference host.
  EXPECT_NEAR(htbench::host_scale(2.0 * htbench::kReferenceProbeS, 1.5), 2.8284271247, 1e-9);
  EXPECT_DOUBLE_EQ(htbench::host_scale(2.0 * htbench::kReferenceProbeS, 1.0), 2.0);
  EXPECT_LT(htbench::host_scale(0.5 * htbench::kReferenceProbeS, 1.5), 1.0);
}

TEST(HostProbe, RunsAFewMillisecondsOfRepeatableWork) {
  htbench::HostProbe probe;
  std::vector<double> t;
  for (int i = 0; i < 9; ++i) t.push_back(probe.run());
  std::sort(t.begin(), t.end());
  const double median = t[t.size() / 2];
  EXPECT_GT(median, 1e-4);
  EXPECT_LT(median, 0.1);
}

}  // namespace
