// warp::Flags: the one argv parser. Every getter takes the whole value and
// checks it against the range it states; a bad value or an unread flag is
// a usage error that exits 2 naming the flag.

#include "warp/common/flags.h"

#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "warp/simd/dispatch.h"

namespace warp {
namespace {

// An argv that outlives the Flags parsing it; argv[0] is "tool".
class Args {
 public:
  Args(std::initializer_list<std::string> args) : strings_(args) {
    strings_.insert(strings_.begin(), "/path/to/tool");
    for (std::string& s : strings_) pointers_.push_back(s.data());
  }
  Flags Parse() {
    return Flags(static_cast<int>(pointers_.size()), pointers_.data());
  }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

TEST(FlagsTest, ParsesValuesBareFlagsPositionalsAndRepeats) {
  Args args({"dist", "--window=0.25", "--znorm", "a.txt", "--gen=a=1,2",
             "--gen=b=3,4", "b.txt", "--name="});
  Flags flags = args.Parse();
  EXPECT_EQ(flags.NextPositional(), "dist");
  EXPECT_EQ(flags.Positionals(), (std::vector<std::string>{"a.txt", "b.txt"}));
  EXPECT_EQ(flags.NextPositional(), "");
  EXPECT_DOUBLE_EQ(flags.GetDouble("window", 0.05, 0.0, 1.0), 0.25);
  EXPECT_TRUE(flags.GetBool("znorm", false));
  EXPECT_EQ(flags.GetAll("gen"), (std::vector<std::string>{"a=1,2", "b=3,4"}));
  EXPECT_EQ(flags.GetString("name", "x"), "");
  EXPECT_TRUE(flags.Has("name"));
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_EQ(flags.GetInt("missing", 7, 0, 10), 7);
  flags.Finalize();  // Everything was read.
}

TEST(FlagsTest, TheLastOccurrenceWinsForSingleValuedFlags) {
  Args args({"--threads=2", "--threads=4"});
  Flags flags = args.Parse();
  EXPECT_EQ(flags.GetCount("threads", 1), 4u);
  flags.Finalize();
}

TEST(FlagsTest, CheckedReadersTakeTheWholeValue) {
  int64_t n = 0;
  EXPECT_TRUE(ReadNumber<int64_t>("42", 0, 100, &n));
  EXPECT_EQ(n, 42);
  EXPECT_TRUE(ReadNumber<int64_t>("-3", -5, 5, &n));
  EXPECT_EQ(n, -3);
  for (const char* bad : {"", "2e4", "12abc", " 5", "+5", "0x10", "1.0",
                          "99999999999999999999"}) {
    EXPECT_FALSE(ReadNumber<int64_t>(bad, Flags::kNoMin, Flags::kNoMax, &n))
        << bad;
  }
  EXPECT_FALSE(ReadNumber<int64_t>("101", 0, 100, &n));
  EXPECT_FALSE(ReadNumber<int64_t>("-1", 0, 100, &n));

  double x = 0.0;
  EXPECT_TRUE(ReadNumber<double>("0.5", 0.0, 1.0, &x));
  EXPECT_EQ(x, 0.5);
  EXPECT_TRUE(ReadNumber<double>("1e-3", 0.0, 1.0, &x));
  EXPECT_EQ(x, 1e-3);
  for (const char* bad : {"", "abc", "nan", "inf", "-inf", "1e999", "0.5x",
                          " 0.5", "0x1p-1"}) {
    EXPECT_FALSE(ReadNumber<double>(bad, -1e300, 1e300, &x)) << bad;
  }
  EXPECT_FALSE(ReadNumber<double>("-0.5", 0.0, 1.0, &x));
  EXPECT_FALSE(ReadNumber<double>("1.5", 0.0, 1.0, &x));

  EXPECT_EQ(SplitList(""), std::vector<std::string>{});
  EXPECT_EQ(SplitList("a,,b"), (std::vector<std::string>{"a", "", "b"}));
}

TEST(FlagsTest, ListsAndWordsAreChecked) {
  Args args({"--bands=0.05,0.1,1", "--disable=a,b", "--linkage=single",
             "--json=0"});
  Flags flags = args.Parse();
  EXPECT_EQ(flags.GetDoubles("bands", {}, 0.0, 1.0),
            (std::vector<double>{0.05, 0.1, 1.0}));
  EXPECT_EQ(SplitList(flags.GetString("disable", "")),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(flags.GetWord("linkage", "average",
                          {"single", "complete", "average"}),
            "single");
  EXPECT_FALSE(flags.GetBool("json", true));
  flags.Finalize();
}

TEST(FlagsTest, TakeUnreadHandsBackTheRest) {
  Args args({"--json=out.json", "--benchmark_filter=BM_Cdtw", "extra"});
  Flags flags = args.Parse();
  EXPECT_EQ(flags.GetString("json", ""), "out.json");
  EXPECT_EQ(flags.TakeUnread(),
            (std::vector<std::string>{"--benchmark_filter=BM_Cdtw", "extra"}));
  flags.Finalize();
}

TEST(FlagsTest, SimdFlagInstallsTheMode) {
  const simd::ScopedSimdMode restore(simd::GetSimdMode());
  Args args({"--simd=off"});
  Flags flags = args.Parse();
  EXPECT_EQ(simd::SimdFlag(flags), simd::SimdMode::kOff);
  EXPECT_EQ(simd::GetSimdMode(), simd::SimdMode::kOff);
  flags.Finalize();
}

// Usage errors exit 2 and name the flag.

TEST(FlagsDeathTest, InvalidValuesExitTwoNamingTheFlag) {
  struct Case {
    const char* arg;
    void (*read)(Flags&);
    const char* message;
  };
  const Case cases[] = {
      {"--window=abc",
       [](Flags& f) { f.GetDouble("window", 0.05, 0.0, 1.0); },
       "tool: invalid --window=abc \\(expected a number from 0 to 1\\)"},
      {"--window=-0.5",
       [](Flags& f) { f.GetDouble("window", 0.05, 0.0, 1.0); },
       "invalid --window=-0.5"},
      {"--radius=-1", [](Flags& f) { f.GetCount("radius", 10); },
       "invalid --radius=-1 \\(expected an integer from 0 to 2147483647\\)"},
      {"--haystack=2e4", [](Flags& f) { f.GetCount("haystack", 1, 128); },
       "invalid --haystack=2e4"},
      {"--port=70000", [](Flags& f) { f.GetInt("port", 0, 0, 65535); },
       "invalid --port=70000"},
      {"--znorm=yes", [](Flags& f) { f.GetBool("znorm", false); },
       "invalid --znorm=yes \\(expected true, false, 1 or 0\\)"},
      {"--simd=fast", [](Flags& f) { simd::SimdFlag(f); },
       "invalid --simd=fast \\(expected on \\| off \\| auto\\)"},
      {"--bands=0.05,abc",
       [](Flags& f) { f.GetDoubles("bands", {}, 0.0, 1.0); },
       "invalid --bands=abc \\(expected a number from 0 to 1\\)"},
      {"--bands=0.05,", [](Flags& f) { f.GetDoubles("bands", {}, 0.0, 1.0); },
       "invalid --bands= \\(expected a number from 0 to 1\\)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.arg);
    Args args({c.arg});
    EXPECT_EXIT(
        {
          Flags flags = args.Parse();
          c.read(flags);
        },
        ::testing::ExitedWithCode(2), c.message);
  }
}

TEST(FlagsDeathTest, UnreadFlagsAndPositionalsFailFinalize) {
  Args typo({"--window=0.1", "--windwo=0.1"});
  EXPECT_EXIT(
      {
        Flags flags = typo.Parse();
        flags.GetDouble("window", 0.05, 0.0, 1.0);
        flags.Finalize();
      },
      ::testing::ExitedWithCode(2), "tool: unknown flag --windwo");
  Args stray({"stray"});
  EXPECT_EXIT(
      {
        Flags flags = stray.Parse();
        flags.Finalize();
      },
      ::testing::ExitedWithCode(2), "tool: unexpected argument 'stray'");
  Args length({"-5"});
  EXPECT_EXIT(
      {
        Flags flags = length.Parse();
        flags.PositionalInt("length", 100, 16, Flags::kNoMax);
      },
      ::testing::ExitedWithCode(2),
      "tool: invalid '-5' \\(expected length, an integer >= 16\\)");
}

}  // namespace
}  // namespace warp
