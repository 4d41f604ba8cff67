#!/usr/bin/env sh
# Regenerates the committed spi-sim golden event logs after an
# *intentional* behavior change. Review the diff before committing:
# every changed line is a schedule-visible behavior change in the
# runner, the transports, the `spi_platform::shim` layer, or the
# simulator itself.
set -eu
cd "$(dirname "$0")/.."
SPI_SIM_REGEN=1 cargo test -p spi-sim --test golden
git --no-pager diff --stat -- crates/sim/tests/golden || true
echo "golden logs regenerated; inspect 'git diff crates/sim/tests/golden' before committing"
