#!/bin/sh
# Near-paper-scale presets for the table/figure harnesses.
#
# The paper's finest mesh has 804,056 nodes; EUL3D_NX=190 generates
# roughly that (190x66x57 lattice ~= 810k nodes, ~5.6M edges). Expect
# minutes-to-hours per harness on one core and several GB of memory for
# the distributed runs.
#
# The default is EUL3D_NX=88 (~74k nodes): the largest size ROADMAP
# item 1 measured converging at the paper's rate. The mesh-sequence
# multigrid goes non-finite at NX=96 and above (cycle 7 at NX=96), and
# the harnesses now exit non-zero on a non-finite history instead of
# timing it -- so larger sizes fail fast until item 1 is fixed.
#
# Usage: sh scripts/paper_scale.sh table1   (or fig2, table2, ...)
set -e
BIN="${1:?usage: paper_scale.sh <harness-bin>}"
export EUL3D_NX="${EUL3D_NX:-88}"
export EUL3D_LEVELS="${EUL3D_LEVELS:-4}"
export EUL3D_CYCLES="${EUL3D_CYCLES:-25}"
export EUL3D_RANKS="${EUL3D_RANKS:-256,512}"
exec cargo run --release -p eul3d-bench --bin "$BIN"
