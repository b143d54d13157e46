#include "util/string_util.h"

#include <gtest/gtest.h>

namespace comptx {
namespace {

TEST(StrJoinTest, JoinsWithSeparator) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(StrJoin(parts, ", "), "a, b, c");
}

TEST(StrJoinTest, EmptyAndSingleton) {
  EXPECT_EQ(StrJoin(std::vector<std::string>{}, ","), "");
  EXPECT_EQ(StrJoin(std::vector<std::string>{"only"}, ","), "only");
}

TEST(StrJoinTest, StreamsNonStrings) {
  std::vector<int> numbers = {1, 2, 3};
  EXPECT_EQ(StrJoin(numbers, "-"), "1-2-3");
}

TEST(StrSplitTest, SplitsOnSeparator) {
  EXPECT_EQ(StrSplit("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StrSplitTest, KeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StrSplitTest, EmptyInputYieldsNothing) {
  EXPECT_TRUE(StrSplit("", ',').empty());
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("schedule", "sched"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
  EXPECT_FALSE(StartsWith("sched", "schedule"));
}

TEST(StrCatTest, ConcatenatesMixedTypes) {
  EXPECT_EQ(StrCat("level ", 3, " of ", 4.5), "level 3 of 4.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(ParseKeyValuesTest, SplitsTokensInOrder) {
  auto parsed = ParseKeyValues("  a=1 host=x.y  empty= ", "OPEN option");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[0].key, "a");
  EXPECT_EQ((*parsed)[0].value, "1");
  EXPECT_EQ((*parsed)[1].value, "x.y");
  EXPECT_EQ((*parsed)[2].key, "empty");
  EXPECT_EQ((*parsed)[2].value, "");
  EXPECT_TRUE(ParseKeyValues("", "OPEN option")->empty());
}

TEST(ParseKeyValuesTest, RejectsBareTokensAndEmptyKeys) {
  for (const char* text : {"a=1 flag", "=5"}) {
    auto parsed = ParseKeyValues(text, "OPEN option");
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_TRUE(StartsWith(parsed.status().message(), "OPEN option '"))
        << parsed.status().message();
  }
}

TEST(ParseUint64Test, AcceptsPlainDecimalUpToTheMaximum) {
  EXPECT_EQ(*ParseUint64("k", "0"), 0u);
  EXPECT_EQ(*ParseUint64("k", "0042"), 42u);
  EXPECT_EQ(*ParseUint64("k", "18446744073709551615"), UINT64_MAX);
}

TEST(ParseUint64Test, RejectsSignsBlanksAndOverflow) {
  for (const char* value :
       {"", "-1", "+1", " 1", "1 ", "0x10", "1e3", "18446744073709551616",
        "99999999999999999999"}) {
    EXPECT_FALSE(ParseUint64("k", value).ok()) << "'" << value << "'";
  }
}

}  // namespace
}  // namespace comptx
