#!/bin/sh
# errlint: keep the error taxonomy intact in internal/.
#
# Every error that escapes ccift.Launch must match exactly one ccift.Err*
# sentinel via errors.Is (see errors.go and internal/cerr). That chain
# survives only if intermediate layers wrap causes with %w — a fmt.Errorf
# that formats an underlying error with %v/%s flattens it to a string and
# silently drops the category.
#
# Root-cause constructions (a brand-new error with nothing to wrap) are
# legitimate and are grandfathered by count: BASELINE is the number of
# non-%w fmt.Errorf calls in internal/ at the time the taxonomy landed.
# New code must not push the count above it — wrap with %w, or construct
# the error where it is categorized. If you removed one, lower BASELINE.
set -eu
cd "$(dirname "$0")/.."

BASELINE=39

offenders=$(grep -rn --include='*.go' 'fmt\.Errorf' internal \
	| grep -v '_test\.go:' \
	| grep -v '%w' || true)
count=$(printf '%s' "$offenders" | grep -c . || true)

echo "errlint: $count fmt.Errorf without %w in internal/ (baseline $BASELINE)"
if [ "$count" -gt "$BASELINE" ]; then
	echo "errlint: FAIL — new fmt.Errorf without %w in internal/:" >&2
	echo "$offenders" >&2
	echo "errlint: wrap the cause with %w so its ccift.Err* category survives," >&2
	echo "errlint: or lower BASELINE in scripts/errlint.sh if you removed some." >&2
	exit 1
fi
if [ "$count" -lt "$BASELINE" ]; then
	echo "errlint: note — count dropped below baseline; consider lowering BASELINE to $count"
fi
