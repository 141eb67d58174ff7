#!/usr/bin/env bash
# reach_audit.sh — checks the functions and methods that nothing the
# project ships reaches against the audited keep-list,
# scripts/reach_kept.txt.
#
# A declaration counts as reached when the linker keeps it in one of
# the shipped builds: the binaries under cmd/, the programs under
# examples/ and the benchmark driver. Each is built with inlining off
# (-gcflags=all=-l, so a small function is not folded into its caller)
# and -ldflags=-dumpdep, which prints every edge of the linker's
# reachability graph. Every func declared in a non-test file outside
# testdata/ is matched against those symbols; generic instantiations
# match through their base name. The test-only packages internal/lint
# and internal/testleak are left out: nothing shipped imports them.
#
# Each entry of the keep-list (its lines not starting with #, sorted
# bytewise) was read and kept on purpose; its header says why.
# The script prints the unreached symbols that differ from the list, as
# a diff (- kept but now reached or gone, + newly unreached), and exits
# 1; with no difference it prints the count and exits 0. A new entry is
# either deleted or, once read, added to the list.
#
# Usage: scripts/reach_audit.sh
set -euo pipefail
export LC_ALL=C # one sort order for the list and the keep-list
cd "$(dirname "$0")/.."
mod=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for t in ./cmd/* ./examples/* ./benchmark; do
	rel=${t#./}
	# Strip type arguments (innermost brackets first: shapes nest and
	# contain spaces), then keep both ends of every edge.
	go build -o /dev/null -gcflags=all=-l -ldflags=-dumpdep "$t" 2>&1 |
		sed -E ':a; s/\[[^][]*\]//; ta' | sed 's/ -> /\n/' |
		grep -E "^($mod|main\.)" | sed -E "s#^main\.#main@$rel.#" >>"$tmp/reached"
done
sort -u -o "$tmp/reached" "$tmp/reached"

# One "<dir>|<receiver>|<name>" per declaration; the symbol is spelled
# below as the linker spells it: pkg.F, pkg.T.M or pkg.(*T).M; main
# packages as main@dir.
grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=testdata \
	--exclude-dir=lint --exclude-dir=testleak '^func ' . |
	sed -E 's#^\./##' |
	awk -v mod="$mod" '{
		split($0, p, ":"); file = p[1]; line = p[2]
		dir = file; sub(/\/[^\/]*$/, "", dir); if (dir == file) dir = "."
		decl = substr($0, length(file) + length(line) + 3)
		sub(/^func /, "", decl)
		recv = ""
		if (decl ~ /^\(/) {
			recv = decl; sub(/\).*/, "", recv); sub(/^\(/, "", recv)
			n = split(recv, r, " "); recv = r[n]; sub(/\[.*/, "", recv)
			decl = substr(decl, index(decl, ")") + 2)
		}
		name = decl; sub(/[\[(].*/, "", name)
		if (name == "init" || name == "_" || (name == "main" && recv == "")) next
		print dir "|" recv "|" name
	}' >"$tmp/decls"
grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=testdata '^package main$' . |
	sed -E 's#^\./##; s#/[^/]*$##' | sort -u >"$tmp/mains"

while IFS='|' read -r dir recv name; do
	if grep -qxF -- "$dir" "$tmp/mains"; then
		pkg="main@$dir"
	elif [ "$dir" = . ]; then
		pkg=$mod
	else
		pkg=$mod/$dir
	fi
	case $recv in
	"") syms="$pkg.$name" ;;
	\**) syms="$pkg.($recv).$name" ;;
	*) syms="$pkg.$recv.$name $pkg.(*$recv).$name" ;;
	esac
	hit=0
	for s in $syms; do
		if grep -qxF -- "$s" "$tmp/reached"; then hit=1; fi
	done
	if [ $hit = 0 ]; then echo "${syms%% *}"; fi
done <"$tmp/decls" | sort >"$tmp/unreached"

grep -v '^#' scripts/reach_kept.txt >"$tmp/kept"
if ! diff -u --label scripts/reach_kept.txt --label unreached "$tmp/kept" "$tmp/unreached"; then
	echo "reach audit: the unreached functions differ from scripts/reach_kept.txt" >&2
	exit 1
fi
echo "reach audit: $(wc -l <"$tmp/unreached") unreached functions, each on the keep-list"
