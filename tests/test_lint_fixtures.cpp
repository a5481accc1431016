// Fixture-driven proof that the tracer-* invariant checks fire where they
// must and stay silent where they must not (docs/STATIC_ANALYSIS.md).
//
// Every fixture under tests/lint_fixtures/ carries inline markers
// `// expect: tracer-<check>` on the lines that must be diagnosed. The test
// runs scripts/tracer_lint.py --fixture-mode on every fixture and compares
// the emitted (line, check) set against the markers exactly — extra
// findings fail the same as missing ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef TRACER_SOURCE_DIR
#error "TRACER_SOURCE_DIR must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

using Finding = std::pair<int, std::string>;  // (line, check-name)

const fs::path kSourceDir = fs::path(TRACER_SOURCE_DIR);
const fs::path kFixtureDir = kSourceDir / "tests" / "lint_fixtures";

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  // Findings go to stdout and the summary to stderr; fold them together.
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (!pipe) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe)) result.output += buffer;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::multiset<Finding> parse_markers(const fs::path& fixture) {
  std::multiset<Finding> expected;
  std::ifstream in(fixture);
  EXPECT_TRUE(in.is_open()) << "cannot open fixture " << fixture;
  static const std::regex kMarker(R"(expect:\s*(tracer-[a-z0-9-]+))");
  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    for (std::sregex_iterator it(line.begin(), line.end(), kMarker), end;
         it != end; ++it) {
      expected.emplace(number, (*it)[1].str());
    }
  }
  return expected;
}

/// Parse `file:line:col: warning: ... [check]` diagnostics. Lines that do
/// not match (notes, summaries, compiler banners) are ignored.
std::multiset<Finding> parse_findings(const std::string& output) {
  std::multiset<Finding> findings;
  static const std::regex kDiag(
      R"(:(\d+):\d+:\s+(?:warning|error):\s.*\[(tracer-[a-z0-9-]+)\])");
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    std::smatch match;
    if (std::regex_search(line, match, kDiag)) {
      findings.emplace(std::stoi(match[1].str()), match[2].str());
    }
  }
  return findings;
}

std::string describe(const std::multiset<Finding>& findings) {
  if (findings.empty()) return "  (none)\n";
  std::ostringstream out;
  for (const auto& [line, check] : findings) {
    out << "  line " << line << ": " << check << "\n";
  }
  return out.str();
}

std::vector<fs::path> fixtures_matching(const std::string& prefix) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(kFixtureDir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && entry.path().extension() == ".cpp") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

void expect_same_findings(const fs::path& fixture,
                          const std::multiset<Finding>& expected,
                          const std::multiset<Finding>& actual) {
  EXPECT_EQ(expected, actual)
      << fixture.filename().string() << "\nexpected:\n"
      << describe(expected) << "actual:\n"
      << describe(actual);
}

CommandResult run_lint(const fs::path& fixture) {
  const std::string command = "python3 \"" +
                              (kSourceDir / "scripts" / "tracer_lint.py").string() +
                              "\" --fixture-mode \"" + fixture.string() + "\"";
  return run_command(command);
}

TEST(TracerLintFixtures, FixtureSuiteCoversAllFourChecks) {
  // One fail/pass pair per check; a missing pair means a check has no
  // automated proof that it fires.
  const std::vector<std::string> kChecks = {
      "no_wallclock", "no_naked_sync", "lossless_double_format",
      "no_nondeterminism_in_sim"};
  for (const auto& check : kChecks) {
    EXPECT_TRUE(fs::exists(kFixtureDir / ("fail_" + check + ".cpp")))
        << "missing fail fixture for " << check;
    EXPECT_TRUE(fs::exists(kFixtureDir / ("pass_" + check + ".cpp")))
        << "missing pass fixture for " << check;
  }
}

TEST(TracerLintFixtures, FailFixturesFireExactlyOnMarkedLines) {
  const auto fixtures = fixtures_matching("fail_");
  ASSERT_FALSE(fixtures.empty()) << "no fail fixtures under " << kFixtureDir;
  for (const auto& fixture : fixtures) {
    SCOPED_TRACE(fixture.filename().string());
    const auto expected = parse_markers(fixture);
    ASSERT_FALSE(expected.empty())
        << "fail fixture has no expect markers; the test would be vacuous";
    const auto result = run_lint(fixture);
    EXPECT_EQ(result.exit_code, 1)
        << "linter must exit 1 on findings\n" << result.output;
    expect_same_findings(fixture, expected, parse_findings(result.output));
  }
}

TEST(TracerLintFixtures, PassFixturesStaySilent) {
  const auto fixtures = fixtures_matching("pass_");
  ASSERT_FALSE(fixtures.empty()) << "no pass fixtures under " << kFixtureDir;
  for (const auto& fixture : fixtures) {
    SCOPED_TRACE(fixture.filename().string());
    const auto expected = parse_markers(fixture);
    EXPECT_TRUE(expected.empty())
        << "pass fixture must not carry expect markers";
    const auto result = run_lint(fixture);
    EXPECT_EQ(result.exit_code, 0) << result.output;
    expect_same_findings(fixture, {}, parse_findings(result.output));
  }
}

}  // namespace
