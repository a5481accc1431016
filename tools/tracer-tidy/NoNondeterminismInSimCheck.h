// tracer-no-nondeterminism-in-sim: replay must be bit-reproducible.
//
// The replay path's contract is the golden ReplayReport literals, compared
// as exact doubles (tests/test_golden_reports.cpp); the fleet soak's
// contract is a merged journal bit-identical to a clean run. Both die the
// moment anything in a simulation path consumes entropy or iterates a hash
// container in address order. The sanctioned randomness is
// util::Rng, seeded from config; the sanctioned iteration order is
// insertion/index order (vector, map, or an explicit sort).
//
// Flags, in files matching PathFilter:
//   * std::rand / srand / random / drand48 / lrand48 calls
//   * std::random_device (any mention — hardware entropy is never
//     reproducible)
//   * default-constructed standard random engines (mt19937 etc. without an
//     explicit seed)
//   * range-for loops whose range is a std::unordered_{map,set,multimap,
//     multiset} — bucket order depends on allocation addresses and libc++
//     vs libstdc++ disagree, so any result that feeds from such a loop is
//     nondeterministic. Loops whose body provably commutes (pure counting)
//     may carry a justified NOLINT.
//
// Options:
//   PathFilter — POSIX regex selecting simulation paths. Default
//                "/(sim|storage)/|/core/replay": the DES kernel, the
//                device/energy models, and the replay engine.
#pragma once

#include "TracerTidyUtils.h"
#include "clang-tidy/ClangTidyCheck.h"

namespace clang::tidy::tracer {

class NoNondeterminismInSimCheck : public ClangTidyCheck {
public:
  NoNondeterminismInSimCheck(StringRef Name, ClangTidyContext *Context)
      : ClangTidyCheck(Name, Context),
        PathFilter(
            Options.get("PathFilter", "/(sim|storage)/|/core/replay")) {}

  bool isLanguageVersionSupported(const LangOptions &LangOpts) const override {
    return LangOpts.CPlusPlus;
  }
  void registerMatchers(ast_matchers::MatchFinder *Finder) override;
  void check(const ast_matchers::MatchFinder::MatchResult &Result) override;
  void storeOptions(ClangTidyOptions::OptionMap &Opts) override;

private:
  const std::string PathFilter;
};

} // namespace clang::tidy::tracer
