// Shared bench command line: an argument no bench understands — a typo or a
// retired flag such as --engine — must stop the run with exit code 2 and
// name the argument, never be dropped.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runner/bench_cli.hpp"

using namespace mempool::runner;

namespace {

/// parse_bench_options over @p args (argv[0] = "bench"), then the
/// leftover-argument check a bench without positional arguments runs.
/// Returns what is left of argc when nothing exits.
int parse_and_reject(std::vector<std::string> args, int consumed = 1) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(args.size());
  parse_bench_options(&argc, argv.data(), "bench");
  reject_leftover_args(argc, argv.data(), "bench", consumed);
  return argc;
}

}  // namespace

TEST(BenchCli, KnownFlagsLeaveNothingBehind) {
  EXPECT_EQ(parse_and_reject({"--threads", "2", "--quiet", "--no-json"}), 1);
}

TEST(BenchCliDeathTest, UnknownFlagExitsNamingIt) {
  EXPECT_EXIT(parse_and_reject({"--quiet", "--bogus-flag"}),
              ::testing::ExitedWithCode(2),
              "bench: unexpected argument '--bogus-flag'");
}

TEST(BenchCliDeathTest, RetiredEngineFlagsExitNamingThem) {
  EXPECT_EXIT(parse_and_reject({"--engine", "dense"}),
              ::testing::ExitedWithCode(2), "unexpected argument '--engine'");
  EXPECT_EXIT(parse_and_reject({"--sim-threads", "4"}),
              ::testing::ExitedWithCode(2),
              "unexpected argument '--sim-threads'");
  EXPECT_EXIT(parse_and_reject({"--list-engines"}),
              ::testing::ExitedWithCode(2),
              "unexpected argument '--list-engines'");
}

TEST(BenchCliDeathTest, ArgumentsPastTheConsumedPositionalsExit) {
  EXPECT_EQ(parse_and_reject({"TopH", "0.2"}, /*consumed=*/3), 3);
  EXPECT_EXIT(parse_and_reject({"TopH", "0.2", "0", "extra"}, 4),
              ::testing::ExitedWithCode(2), "unexpected argument 'extra'");
}
