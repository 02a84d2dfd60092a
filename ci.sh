#!/usr/bin/env sh
# Tier-1 verify line: the Makefile is the one copy of the policy.
set -eu
exec make verify
