#!/usr/bin/env bash
# Wire-layout invariant gate: compiles scripts/wire_layout_probe.cc with
# -fsyntax-only, which re-evaluates the static_assert chain freezing the
# v5 envelope offsets in src/service/transport.h. Then the negative leg:
# the same probe with -DDBSA_WIRE_PROBE_BAD asserts a wrong layout and
# MUST fail to compile — a gate that cannot fail is no gate.
#
# Usage: check_wire_layout.sh [--bad-only]
#   --bad-only  run just the negative leg (used by lint_selftest.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

CXX="${CXX:-}"
if [[ -z "$CXX" ]]; then
  for candidate in c++ g++ clang++; do
    if command -v "$candidate" >/dev/null 2>&1; then
      CXX="$candidate"
      break
    fi
  done
fi
if [[ -z "$CXX" ]]; then
  echo "check_wire_layout: no C++ compiler found" >&2
  exit 1
fi

FLAGS=(-std=c++17 -fsyntax-only -Isrc)

if [[ "${1:-}" != "--bad-only" ]]; then
  "$CXX" "${FLAGS[@]}" scripts/wire_layout_probe.cc
  echo "check_wire_layout: layout asserts hold"
fi

# Negative leg: the deliberately-wrong assert must NOT compile.
if "$CXX" "${FLAGS[@]}" -DDBSA_WIRE_PROBE_BAD scripts/wire_layout_probe.cc 2>/dev/null; then
  echo "check_wire_layout: BAD probe compiled — static_assert gate is dead" >&2
  exit 1
fi
echo "check_wire_layout: negative probe rejected (gate is live)"
