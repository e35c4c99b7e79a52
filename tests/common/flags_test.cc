#include "common/flags.h"

#include <gtest/gtest.h>

namespace airindex {
namespace {

TEST(FlagsTest, ParsesWholeNumbers) {
  double d = 0.0;
  EXPECT_TRUE(ParseDouble("--loss", "0.02", &d));
  EXPECT_EQ(d, 0.02);
  uint64_t u = 0;
  EXPECT_TRUE(ParseUint("<source>", "18446744073709551615", &u));
  EXPECT_EQ(u, 18446744073709551615ull);
}

TEST(FlagsTest, RejectsTrailingGarbageEmptyAndOverflow) {
  double d = 7.0;
  EXPECT_FALSE(ParseDouble("--loss", "abc", &d));
  EXPECT_FALSE(ParseDouble("--loss", "0.1x", &d));
  EXPECT_FALSE(ParseDouble("--loss", "", &d));
  EXPECT_FALSE(ParseDouble("--loss", "1e999", &d));
  EXPECT_EQ(d, 7.0);  // untouched on failure
  uint64_t u = 7;
  EXPECT_FALSE(ParseUint("<source>", "5x", &u));
  EXPECT_FALSE(ParseUint("<source>", "", &u));
  EXPECT_FALSE(ParseUint("<source>", "18446744073709551616", &u));
  EXPECT_EQ(u, 7u);
}

TEST(FlagsTest, UintRejectsSigns) {
  uint64_t u = 0;
  EXPECT_FALSE(ParseUint("--burst", "-3", &u));
  EXPECT_FALSE(ParseUint("--burst", "+3", &u));
  EXPECT_FALSE(ParseUint("--burst", " -3", &u));
}

TEST(FlagsTest, UintHonoursMax) {
  uint64_t u = 0;
  EXPECT_TRUE(ParseUint("<nodes>", "4294967295", &u, 0xFFFFFFFFull));
  EXPECT_EQ(u, 0xFFFFFFFFull);
  EXPECT_FALSE(ParseUint("<nodes>", "4294967296", &u, 0xFFFFFFFFull));
}

TEST(FlagsTest, FlagFormNamesTheFlag) {
  testing::internal::CaptureStderr();
  double d = 0.0;
  EXPECT_FALSE(ParseDoubleFlag("--loss=abc", 7, &d));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "invalid value for --loss: \"abc\"\n");
  testing::internal::CaptureStderr();
  uint64_t u = 0;
  EXPECT_TRUE(ParseUintFlag("--queries=12", 10, &u));
  EXPECT_EQ(u, 12u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace airindex
