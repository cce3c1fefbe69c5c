// The shared spec rules: the item splitter, the number rule and its
// diagnostic format (util/spec.h).
#include "util/spec.h"

#include <gtest/gtest.h>

#include <climits>
#include <vector>

namespace hm::util {
namespace {

std::vector<std::string> items(std::string_view body, char sep) {
  std::vector<std::string> out;
  for_each_item(body, sep, [&](std::string_view s) {
    out.emplace_back(s);
    return true;
  });
  return out;
}

TEST(SpecItems, SplitsAndSkipsEmptyItems) {
  EXPECT_EQ(items("a,b,,c,", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(items(";x;;", ';'), (std::vector<std::string>{"x"}));
  EXPECT_TRUE(items("", ',').empty());
  int calls = 0;
  EXPECT_FALSE(for_each_item("a,b,c", ',', [&](std::string_view) { return ++calls < 2; }));
  EXPECT_EQ(calls, 2);  // stops at the first rejected item
}

TEST(SpecNumbers, AcceptsWholeFiniteNumbersInRange) {
  double d = 0;
  std::uint32_t u = 0;
  int i = 0;
  bool b = false;
  std::uint64_t scaled = 0;
  std::string err;
  EXPECT_TRUE(parse_value("g", {"d", &d, -kInf}, "-2.5e-1", &err)) << err;
  EXPECT_EQ(d, -0.25);
  EXPECT_TRUE(parse_value("g", {"u", &u, 0, 4294967295.0}, "4294967295", &err)) << err;
  EXPECT_EQ(u, 4294967295u);
  EXPECT_TRUE(parse_value("g", {"u", &u, 0, 10}, "2.0", &err)) << err;  // whole
  EXPECT_EQ(u, 2u);
  EXPECT_TRUE(parse_value("g", {"i", &i, 0, INT_MAX}, "2147483647", &err)) << err;
  EXPECT_EQ(i, INT_MAX);
  EXPECT_TRUE(parse_value("g", {"b", &b, 0, 1}, "1", &err)) << err;
  EXPECT_TRUE(b);
  EXPECT_TRUE(parse_value("g", {"k", &scaled, 1, 10, false, 1024}, "3", &err)) << err;
  EXPECT_EQ(scaled, 3072u);
  EXPECT_TRUE(parse_value("g", {"d", &d, 0, kInf, true}, ".5", &err)) << err;
  EXPECT_EQ(d, 0.5);
}

TEST(SpecNumbers, RejectsWithOneDiagnosticFormat) {
  double d = 7;
  std::uint32_t u = 7;
  const SpecKey positive{"rate", &d, 0, kInf, true};
  const SpecKey count{"n", &u, 0, kMaxCount};
  const std::pair<const SpecKey*, const char*> bad[] = {
      {&positive, "nan"}, {&positive, "inf"},  {&positive, "-inf"},  {&positive, "1e400"},
      {&positive, "0"},   {&positive, "-1"},   {&positive, "0x10"},  {&positive, " 5"},
      {&positive, "+5"},  {&positive, "5 "},   {&positive, ""},      {&positive, "1,5"},
      {&count, "2.5"},    {&count, "-1"},      {&count, "16777217"}, {&count, "1e20"},
  };
  for (const auto& [key, val] : bad) {
    std::string err;
    EXPECT_FALSE(parse_value("some grammar", *key, val, &err)) << val;
    EXPECT_EQ(err.rfind("some grammar: '" + std::string(key->name) + "' must be ", 0), 0u)
        << val << ": " << err;
    EXPECT_NE(err.find(", got '" + std::string(val) + "'"), std::string::npos) << err;
  }
  EXPECT_EQ(d, 7);  // a rejected value stores nothing
  EXPECT_EQ(u, 7u);
  std::string err;
  parse_value("g", positive, "0", &err);
  EXPECT_EQ(err, "g: 'rate' must be a finite number > 0, got '0'");
  parse_value("g", count, "-1", &err);
  EXPECT_EQ(err, "g: 'n' must be an integer in [0, 16777216], got '-1'");
  parse_value("g", {"f", &d, -kInf}, "nan", &err);
  EXPECT_EQ(err, "g: 'f' must be a finite number, got 'nan'");
  parse_value("g", {"h", &d, 0, 1, true}, "2", &err);
  EXPECT_EQ(err, "g: 'h' must be a finite number in (0, 1], got '2'");
}

TEST(SpecKeys, LooksUpKeysAndNamesTheUnknownOne) {
  double a = 0, b = 0;
  const SpecKey keys[] = {{"a", &a}, {"b", &b}};
  std::string err;
  EXPECT_TRUE(parse_keys("g", "b=2,,a=1,", keys, &err)) << err;
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_FALSE(parse_keys("g", "a=1,c=3", keys, &err));
  EXPECT_EQ(err, "g: unknown key 'c'");
  EXPECT_FALSE(parse_keys("g", "a", keys, &err));
  EXPECT_EQ(err, "g: expected key=value, got 'a'");
}

}  // namespace
}  // namespace hm::util
