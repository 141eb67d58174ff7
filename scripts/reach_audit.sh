#!/usr/bin/env bash
# reach_audit.sh — lists the functions and methods that nothing the
# project ships reaches.
#
# A declaration counts as reached when the linker keeps it in one of
# the shipped builds: the binaries under cmd/, the programs under
# examples/ and the benchmark driver. Each is built with inlining off
# (-gcflags=all=-l, so a small function is not folded into its caller)
# and -ldflags=-dumpdep, which prints every edge of the linker's
# reachability graph. Every func declared in a non-test file outside
# testdata/ is matched against those symbols; generic instantiations
# match through their base name.
#
# What is left still needs reading: a declaration an Example* function
# or a README snippet names is a root, and a test-only package
# (internal/lint, internal/testleak) is reported whole.
#
# Usage: scripts/reach_audit.sh   (prints "<symbol> <file>:<line>")
set -euo pipefail
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

# One "<symbol> <file>:<line>" per declaration, spelled as the linker
# spells it: pkg.F, pkg.T.M or pkg.(*T).M; main packages as main@dir.
grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=testdata '^func ' . |
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
		print dir "|" recv "|" name "|" file ":" line
	}' >"$tmp/decls"
grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=testdata '^package main$' . |
	sed -E 's#^\./##; s#/[^/]*$##' | sort -u >"$tmp/mains"

while IFS='|' read -r dir recv name at; do
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
	if [ $hit = 0 ]; then echo "${syms%% *} $at"; fi
done <"$tmp/decls"
