#!/usr/bin/env bash
# Documentation consistency checks, run in CI (see .github/workflows/ci.yml):
#
#   1. Every intra-repo link in the committed markdown files resolves to an
#      existing file (external http(s)/mailto links and pure #anchors are
#      skipped; a #fragment on a file link is stripped before the check).
#   2. The TGCRN_* environment variables read via the common/env readers
#      in the sources exactly match the rows of the env-var table in
#      docs/API.md, in both directions — an undocumented variable or a
#      documented-but-gone variable both fail, as does any getenv() call
#      outside src/common/env.cc.
#
# Usage: tools/check_docs.sh   (from anywhere; also the ctest `check_docs`)
set -u

cd "$(dirname "$0")/.." || exit 1
fail=0

# --- 1. intra-repo markdown links -----------------------------------------
# Matches the inline form [text](target). Reference-style links are not used
# in this repo. Targets inside code spans are rare enough that false
# positives would show up as a hard failure here, so we keep the grep simple.
# Outside a git work tree (e.g. an unpacked archive) the files are found
# on disk instead; an empty list fails rather than passing vacuously.
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  mapfile -t md_files < <(git ls-files --cached --others --exclude-standard '*.md')
else
  mapfile -t md_files < <(find . -type d \( -name .git -o -name 'build*' \
                            -o -name .bench_build \) -prune \
                            -o -type f -name '*.md' -print | sed 's|^\./||')
fi
if [ "${#md_files[@]}" -eq 0 ]; then
  echo "check_docs: no markdown files found"
  fail=1
fi
for f in "${md_files[@]}"; do
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"            # strip #fragment
    [ -z "$path" ] && continue
    base="$(dirname "$f")"
    if [ ! -e "$base/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN LINK: $f -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\(([^)]+)\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done

# --- 2. TGCRN_* env vars: source vs docs/API.md ---------------------------
for f in $(grep -rl getenv src tools bench --include='*.cc' --include='*.h'); do
  [ "$f" = src/common/env.cc ] || { echo "getenv() outside common/env: $f"; fail=1; }
done
# -z reads each file as one record, so a call may wrap before the name.
src_vars="$(grep -rhoPz 'Env(String|Bool|Int|Choice)\(\s*"TGCRN_[A-Z0-9_]+"' \
              src tools bench --include='*.cc' --include='*.h' \
              | tr '\0' '\n' | grep -oE 'TGCRN_[A-Z0-9_]+' | sort -u)"
doc_vars="$(grep -oE '^\| TGCRN_[A-Z0-9_]+ ' docs/API.md \
              | sed -E 's/^\| //; s/ $//' | sort -u)"

undocumented="$(comm -23 <(printf '%s\n' "$src_vars") <(printf '%s\n' "$doc_vars"))"
stale="$(comm -13 <(printf '%s\n' "$src_vars") <(printf '%s\n' "$doc_vars"))"

if [ -n "$undocumented" ]; then
  echo "ENV VARS read in source but missing from docs/API.md table:"
  printf '  %s\n' $undocumented
  fail=1
fi
if [ -n "$stale" ]; then
  echo "ENV VARS documented in docs/API.md but not read anywhere in source:"
  printf '  %s\n' $stale
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "check_docs: ${#md_files[@]} markdown files, all links resolve;"
  echo "check_docs: env-var table in docs/API.md matches the sources:"
  printf '  %s\n' $src_vars
fi
exit "$fail"
