#!/usr/bin/env bash
# One-command local reproduction of the CI clang-tidy gates
# (docs/STATIC_ANALYSIS.md). Needs clang-tidy and (ideally)
# run-clang-tidy on PATH; CI installs a pinned major version via apt
# (see .github/workflows/ci.yml).
#
#   scripts/run_clang_tidy.sh                 # whole tree
#   scripts/run_clang_tidy.sh src/core        # one subtree
#   scripts/run_clang_tidy.sh --changed       # only files changed vs the
#                                             # merge base with origin/main
#                                             # (plus .cpp files that
#                                             # include a changed header)
#
# The tracer-* project invariants are scripts/tracer_lint.py's job.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tidy
CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
RUN_CLANG_TIDY="${RUN_CLANG_TIDY:-run-clang-tidy}"
BASE_REF="${BASE_REF:-origin/main}"

CHANGED=0
SCOPE=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --changed) CHANGED=1 ;;
    --*) echo "error: unknown option '$1'" >&2; exit 2 ;;
    *) SCOPE="$1" ;;
  esac
  shift
done

if ! command -v "${CLANG_TIDY}" >/dev/null 2>&1; then
  echo "error: ${CLANG_TIDY} not found on PATH (apt install clang-tidy)" >&2
  exit 1
fi

# A dedicated compile database keeps tidy runs independent of the main
# build tree's compiler/flags.
cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null

if [[ ${CHANGED} -eq 1 ]]; then
  # Lint the diff: every changed .cpp, plus every .cpp in the compile
  # database that includes a changed header (a header-only change still
  # needs its consumers re-checked). Merge base, not HEAD: a stacked
  # branch lints only its own work.
  if ! BASE="$(git merge-base "${BASE_REF}" HEAD 2>/dev/null)"; then
    echo "warning: no merge base with ${BASE_REF}; falling back to HEAD~1" >&2
    BASE="$(git rev-parse HEAD~1)"
  fi
  mapfile -t CHANGED_FILES < <(git diff --name-only --diff-filter=d "${BASE}" -- 'src/*')
  declare -A WANT=()
  HEADERS=()
  for f in "${CHANGED_FILES[@]}"; do
    case "$f" in
      *.cpp) WANT["$f"]=1 ;;
      *.h|*.hpp) HEADERS+=("$f") ;;
    esac
  done
  if [[ ${#HEADERS[@]} -gt 0 ]]; then
    while IFS= read -r cpp; do
      for h in "${HEADERS[@]}"; do
        # Headers are included project-relative to src/ (e.g. "db/journal.h").
        rel="${h#src/}"
        if grep -q "\"${rel}\"" "$cpp" 2>/dev/null; then
          WANT["$cpp"]=1
          break
        fi
      done
    done < <(find src -name '*.cpp' | sort)
  fi
  FILES=()
  for f in "${!WANT[@]}"; do FILES+=("$f"); done
  IFS=$'\n' FILES=($(sort <<<"${FILES[*]-}")); unset IFS
  if [[ ${#FILES[@]} -eq 0 ]]; then
    echo "clang-tidy: no source changes vs $(git rev-parse --short "${BASE}") — nothing to lint"
    exit 0
  fi
  echo "clang-tidy: linting ${#FILES[@]} file(s) changed vs $(git rev-parse --short "${BASE}")"
else
  SCOPE="${SCOPE:-src}"
  mapfile -t FILES < <(find "${SCOPE}" -name '*.cpp' | sort)
  if [[ ${#FILES[@]} -eq 0 ]]; then
    echo "error: no .cpp files under '${SCOPE}'" >&2
    exit 1
  fi
fi

if command -v "${RUN_CLANG_TIDY}" >/dev/null 2>&1; then
  "${RUN_CLANG_TIDY}" -p "${BUILD_DIR}" -quiet "${FILES[@]}"
else
  "${CLANG_TIDY}" -p "${BUILD_DIR}" --quiet "${FILES[@]}"
fi
echo "clang-tidy: clean (${#FILES[@]} files)"
