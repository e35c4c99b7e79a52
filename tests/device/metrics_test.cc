#include "device/metrics.h"

#include <gtest/gtest.h>

namespace airindex::device {
namespace {

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.ElapsedMs(), 0.0);
}

}  // namespace
}  // namespace airindex::device
