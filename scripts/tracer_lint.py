#!/usr/bin/env python3
"""The TRACER project-invariant checker.

A token-level linter for the four invariants generic tooling cannot know
about. Typed integer narrowing is not here: GCC's -Wconversion, an error
on every src/ target (src/CMakeLists.txt), owns it. The fixture suite
under tests/lint_fixtures/ (driven by tests/test_lint_fixtures.cpp)
asserts every check fires on its fail fixture and stays silent on its
pass fixture; docs/STATIC_ANALYSIS.md records the mutation study that
measured this linter's recall on seeded copies of src/.

Checks (docs/STATIC_ANALYSIS.md has the invariant -> check table):

  tracer-no-wallclock              wall-clock time sources banned; use
                                   util::MonotonicClock (label-only uses
                                   carry a justified NOLINT)
  tracer-no-naked-sync             std::mutex & friends banned outside
                                   util/sync.h; use the annotated wrappers
  tracer-lossless-double-format    %g/%f/%e with precision < 17 banned in
                                   codec paths (net/, db/, fleet_wire)
  tracer-no-nondeterminism-in-sim  entropy sources and std::unordered_*
                                   containers banned in simulation paths;
                                   a lookup-only map carries a justified
                                   NOLINT and is then checked to be used
                                   only through lookups
  tracer-nolint-justification      every NOLINT(tracer-...) must carry
                                   ": <reason>" in-line

Usage:
  tracer_lint.py [PATH...]          lint files/trees (default: src/)
  tracer_lint.py --fixture-mode F   lint one fixture with path filters off

Output is clang-tidy shaped: "file:line:col: warning: msg [check]".
Exit 1 when any diagnostic fires, 0 when clean.
"""

import bisect
import fnmatch
import os
import re
import sys

PATH_FILTER_CODEC = re.compile(r"/(net|db)/|fleet_wire")
PATH_FILTER_SIM = re.compile(r"/(sim|storage)/|/core/replay")
ALLOW_NAKED_SYNC = re.compile(r"util/sync\.h$")

WALLCLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    # libstdc++ defines high_resolution_clock as an alias of system_clock.
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday"),
    (re.compile(r"\btimespec_get\s*\("), "timespec_get"),
    (re.compile(r"\bftime\s*\("), "ftime"),
    (re.compile(r"std::time\s*\(|(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL|0|&)"),
     "time()"),
    (re.compile(r"(?<![\w:.>])clock\s*\(\s*\)"), "clock()"),
]
# Formatting helpers that only convert an already-obtained time_t
# (gmtime_r, strftime, localtime_r) are deliberately NOT banned: the
# invariant is about where time is *read*, not how labels are printed.

# A `using namespace std;` directive lets a file drop the std:: qualifier
# the sync and engine patterns key on, so such files are matched with the
# qualifier optional. Indexed by "file has the directive".
USING_STD = re.compile(r"\busing\s+namespace\s+std\s*;")


def std_pattern(body):
    return (re.compile(r"std::" + body),
            re.compile(r"(?<![\w:.>])(?:std::)?" + body))


NAKED_SYNC = std_pattern(
    r"(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")

RAND_CALLS = re.compile(
    r"std::s?rand\b|(?<![\w:.>])s?rand\s*\(|\b[dlm]rand48\s*\(|"
    r"\brand_r\s*\(|(?:std::)?\brandom_device\b")

# A default-constructed engine, named (`std::mt19937 gen;`) or temporary
# (`std::shuffle(b, e, std::mt19937{})`).
UNSEEDED_ENGINE = std_pattern(
    r"(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux\d+(?:_base)?|knuth_b)"
    r"(?:\s+\w+\s*(?:;|\{\s*\}|\(\s*\))|\s*(?:\{\s*\}|\(\s*\)))")

# Any mention of an unordered container type (declaration, alias,
# parameter), and the name a declaration binds, for the lookup-only check.
UNORDERED_TYPE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<.*>\s*[&*]?\s*(\w+)")
# Member calls that look an element up without exposing hash order.
LOOKUP_SUFFIX = (r"(?:\s*(?:\.|->)\s*(?:find|at|count|contains|emplace|"
                 r"try_emplace|insert|insert_or_assign|erase|size|empty|"
                 r"clear|reserve|end|cend)\s*\(|\s*\[)")

# printf-family conversion spec: %[flags][width][.precision][length]conv
FORMAT_SPEC = re.compile(
    r"%[-+ #0']*[0-9*]*(?:\.(\d+|\*))?[hljztL]*([a-zA-Z%])")
STRING_LITERAL = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
# Adjacent literals ("%" "g", or split across lines) are one literal to
# the compiler, so they are joined before their specs are scanned.
LITERAL_RUN = re.compile(r'"(?:[^"\\\n]|\\.)*"(?:\s*"(?:[^"\\\n]|\\.)*")*')

INCLUDE = re.compile(r"\s*#\s*include\b")
NOLINT_RE = re.compile(r"NOLINT(NEXTLINE)?(?:\(([^)]*)\))?")
JUSTIFIED_NOLINT = re.compile(r"NOLINT(?:NEXTLINE)?\([^)]*\)\s*:\s*\S.{8,}")


def strip_comments(text):
    """Return the per-line source with comments removed. String and char
    literal *contents* are preserved (the format check needs them) but
    quotes inside comments are ignored. NOLINT handling reads the raw
    lines instead."""
    code, cur_code = [], []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code.append("".join(cur_code))
            cur_code = []
            if state in ("line_comment", "string", "char"):
                state = "code"  # unterminated literal: recover per line
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            cur_code.append(c)
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                i += 2
                state = "code"
                continue
        elif state in ("string", "char"):
            # The opening quote was consumed in "code" state, so any
            # unescaped matching quote here closes the literal.
            cur_code.append(c)
            if c == "\\" and nxt:
                cur_code.append(nxt)
                i += 2
                continue
            if (state == "string" and c == '"') or \
                    (state == "char" and c == "'"):
                state = "code"
        i += 1
    code.append("".join(cur_code))
    return code


def blank_strings(line):
    """Replace string/char literal contents with spaces (keeps columns)."""
    out = []
    i, n = 0, len(line)
    quote = None
    while i < n:
        c = line[i]
        if quote is None:
            out.append(c)
            if c in "\"'":
                quote = c
        else:
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == quote:
                out.append(c)
                quote = None
            else:
                out.append(" ")
        i += 1
    return "".join(out)


class Diagnostic:
    def __init__(self, path, line, col, message, check):
        self.path, self.line, self.col = path, line, col
        self.message, self.check = message, check

    def __str__(self):
        return (f"{self.path}:{self.line}:{self.col}: warning: "
                f"{self.message} [{self.check}]")


def lossy_format_specs(literal):
    """Yield (offset, spec, effective_precision) for floating conversions
    below %.17 in a format string. Precision -1 means dynamic '*'."""
    for m in FORMAT_SPEC.finditer(literal):
        conv = m.group(2)
        if conv not in "fFeEgG":
            continue
        prec = m.group(1)
        if prec == "*":
            yield m.start(), m.group(0), -1
        else:
            eff = 6 if prec is None else int(prec)
            if eff < 17:
                yield m.start(), m.group(0), eff


class FileLinter:
    def __init__(self, path, display_path, fixture_mode=False):
        self.path = path
        self.display = display_path
        self.fixture_mode = fixture_mode
        with open(path, encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.code = strip_comments(self.text)
        self.raw_lines = self.text.split("\n")
        self.using_std = bool(USING_STD.search("\n".join(self.code)))
        self.diags = []

    def in_path(self, pattern):
        return self.fixture_mode or bool(pattern.search(self.display))

    def add(self, lineno, col, message, check):
        self.diags.append(
            Diagnostic(self.display, lineno + 1, col + 1, message, check))

    def unordered_names(self):
        """Names bound by std::unordered_* declarations in a sim path."""
        if not self.in_path(PATH_FILTER_SIM):
            return set()
        return {m.group(1) for line in self.code
                for m in UNORDERED_DECL.finditer(blank_strings(line))}

    def run(self, unordered_names):
        self.check_wallclock()
        self.check_naked_sync()
        self.check_double_format()
        self.check_nondeterminism(unordered_names)
        return self.apply_nolint()

    # -- the four checks ---------------------------------------------------

    def check_wallclock(self):
        for idx, line in enumerate(self.code):
            code = blank_strings(line)
            for pattern, what in WALLCLOCK_PATTERNS:
                m = pattern.search(code)
                if m:
                    self.add(idx, m.start(),
                             f"wall-clock time source '{what}' is banned: "
                             "lease/heartbeat/simulation arithmetic must use "
                             "util::MonotonicClock (util/clock.h); "
                             "label-only uses need a justified NOLINT",
                             "tracer-no-wallclock")
                    break  # one diagnostic per line

    def check_naked_sync(self):
        if not self.fixture_mode and ALLOW_NAKED_SYNC.search(self.display):
            return
        for idx, line in enumerate(self.code):
            m = NAKED_SYNC[self.using_std].search(blank_strings(line))
            if m and not INCLUDE.match(line):
                self.add(idx, m.start(),
                         f"naked 'std::{m.group(1)}' bypasses the Clang "
                         "thread-safety analysis; use the annotated "
                         "util::Mutex / util::MutexLock / util::CondVar "
                         "wrappers (util/sync.h)",
                         "tracer-no-naked-sync")

    def _in_scanf_call(self, idx):
        """True if line `idx` belongs to a scanf-family call statement."""
        for j in range(idx, max(idx - 4, -1), -1):
            code = blank_strings(self.code[j])
            if re.search(r"\b\w*scanf\s*\(", code):
                return True
            # A ';' on an earlier line ends the previous statement: the
            # format literal on `idx` cannot belong to a call opened above.
            if j < idx and ";" in code:
                return False
        return False

    def check_double_format(self):
        if not self.in_path(PATH_FILTER_CODEC):
            return
        text = "\n".join(self.code)
        line_starts = [0]
        for line in self.code[:-1]:
            line_starts.append(line_starts[-1] + len(line) + 1)
        for run in LITERAL_RUN.finditer(text):
            idx = bisect.bisect_right(line_starts, run.start()) - 1
            # scanf-family formats parse text they do not produce; %lg there
            # is mandatory for double and loses nothing. The format string
            # may sit a few lines below the callee, so scan back to the
            # enclosing statement start for the call name.
            if self._in_scanf_call(idx):
                continue
            literal = "".join(STRING_LITERAL.findall(run.group(0)))
            for _off, spec, prec in lossy_format_specs(literal):
                if prec < 0:
                    msg = (f"dynamic precision '{spec}' in a codec path "
                           "cannot be proven lossless; use a literal "
                           "'%.17g' (round-trips every finite double)")
                else:
                    msg = (f"'{spec}' loses double precision in a codec "
                           f"path (effective precision {prec} < 17); use "
                           "'%.17g' so every finite double round-trips "
                           "bit-exactly")
                self.add(idx, run.start() - line_starts[idx], msg,
                         "tracer-lossless-double-format")

    def check_nondeterminism(self, unordered_names):
        if not self.in_path(PATH_FILTER_SIM):
            return
        uses = [re.compile(rf"(?<!\w){re.escape(name)}\b(?!{LOOKUP_SUFFIX})")
                for name in sorted(unordered_names)]
        for idx, line in enumerate(self.code):
            code = blank_strings(line)
            m = RAND_CALLS.search(code)
            if m:
                self.add(idx, m.start(),
                         "entropy source in a simulation path breaks replay "
                         "determinism; use util::Rng seeded from config",
                         "tracer-no-nondeterminism-in-sim")
                continue
            m = UNSEEDED_ENGINE[self.using_std].search(code)
            if m:
                self.add(idx, m.start(),
                         "unseeded random engine in a simulation path: seed "
                         "explicitly from config so replays reproduce",
                         "tracer-no-nondeterminism-in-sim")
                continue
            m = UNORDERED_TYPE.search(code)
            if m and not INCLUDE.match(code):
                self.add(idx, m.start(),
                         f"std::{m.group(0)} in a simulation path iterates in "
                         "hash order; use a vector or std::map, or give a "
                         "lookup-only container a justified NOLINT (its "
                         "other uses must then stay lookups)",
                         "tracer-no-nondeterminism-in-sim")
                continue
            for use in uses:
                m = use.search(code)
                if m:
                    self.add(idx, m.start(),
                             f"'{m.group(0)}' is a std::unordered_* container: "
                             "only lookups (find/at/count/insert/erase/[]) "
                             "keep hash order out of results; iterating, "
                             "binding or passing it exposes that order",
                             "tracer-no-nondeterminism-in-sim")
                    break

    # -- NOLINT handling ---------------------------------------------------

    def nolint_for_line(self, idx):
        """Return (globs, justified, nolint_line) for a NOLINT suppressing
        line idx, or None. Mirrors clang-tidy: same-line NOLINT or
        NOLINTNEXTLINE on the previous line."""
        for src_idx, want_next in ((idx, False), (idx - 1, True)):
            if src_idx < 0 or src_idx >= len(self.raw_lines):
                continue
            text = self.raw_lines[src_idx]
            m = NOLINT_RE.search(text)
            if not m or bool(m.group(1)) != want_next:
                continue
            globs = [g.strip() for g in (m.group(2) or "*").split(",")]
            justified = bool(JUSTIFIED_NOLINT.search(text))
            return globs, justified, src_idx
        return None

    def apply_nolint(self):
        kept = []
        justification_sites = {}
        for d in self.diags:
            hit = self.nolint_for_line(d.line - 1)
            if hit is None:
                kept.append(d)
                continue
            globs, justified, src_idx = hit
            if not any(fnmatch.fnmatch(d.check, g) for g in globs):
                kept.append(d)
                continue
            if d.check.startswith("tracer-") and not justified:
                justification_sites[src_idx] = d.check
        for src_idx, check in sorted(justification_sites.items()):
            kept.append(Diagnostic(
                self.display, src_idx + 1, 1,
                f"NOLINT suppressing '{check}' must carry an in-line "
                "justification: '// NOLINT(" + check + "): <why this site "
                "is exempt>' (docs/STATIC_ANALYSIS.md NOLINT policy)",
                "tracer-nolint-justification"))
        kept.sort(key=lambda d: (d.line, d.col, d.check))
        return kept


def collect_files(paths):
    exts = (".cpp", ".h", ".cc", ".hpp")
    out = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
        else:
            for root, _dirs, files in os.walk(p):
                for name in sorted(files):
                    if name.endswith(exts):
                        out.append(os.path.join(root, name))
    return sorted(out)


def main(argv):
    fixture_mode = False
    paths = []
    for arg in argv[1:]:
        if arg == "--fixture-mode":
            fixture_mode = True
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        elif arg.startswith("-"):
            sys.exit(f"tracer_lint.py: unknown option {arg}\n{__doc__}")
        else:
            paths.append(arg)
    if not paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = [os.path.join(root, "src")]
    files = collect_files(paths)
    if not files:
        sys.exit("tracer_lint.py: no input files")
    linters = [FileLinter(path, os.path.abspath(path).replace(os.sep, "/"),
                          fixture_mode=fixture_mode) for path in files]
    # A lookup-only map is declared in a header and used in its .cpp, so
    # the names are gathered across every file before any is checked.
    unordered_names = set().union(*(l.unordered_names() for l in linters))
    total = 0
    for linter in linters:
        for diag in linter.run(unordered_names):
            print(diag)
            total += 1
    if total:
        print(f"tracer_lint: {total} finding(s) across {len(files)} file(s)",
              file=sys.stderr)
        return 1
    print(f"tracer_lint: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
