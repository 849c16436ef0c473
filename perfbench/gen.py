"""Seeded Desharnais-schema dataset for the regression-scale workload.

Rows satisfy the two derived-size identities that `effortlab validate`
checks: PointsNonAdjust = Transactions + Entities, and PointsAdjust lies
within the program's ADJUST_TOLERANCE (2%) of PNA * (0.65 + 0.01 *
Envergure).

Every parameter below comes from the bundled 77 complete rows: effort
follows the program's own full-model fit on them (`fit --features full`:
coefficients and residual standard deviation), sizes follow the
log-normal fit of their Transactions and Entities, and the discrete
attributes follow their frequencies. `selftest.py` recomputes these
figures from the bundled file and checks the constants against them.

Only the standard library is used, so the same seed gives the same file
on any Python 3 without depending on numpy's random streams.
"""

from __future__ import annotations

import math
import random

COLUMNS = (
    "Project", "TeamExp", "ManagerExp", "YearEnd", "Length", "Effort",
    "Transactions", "Entities", "PointsNonAdjust", "Envergure",
    "PointsAdjust", "Language",
)

# Copy of effortlab.dataset.ADJUST_TOLERANCE; the generator must not import
# the program it feeds.
ADJUST_TOLERANCE = 0.02

# Full-model fit on the bundled rows: ln(Effort) on ln(PNA), the language
# dummies (4GL, code 3, is the baseline), TeamExp, ManagerExp, Envergure.
FULL_FIT = {"intercept": 1.458, "ln_size": 0.881, "lang_1": 1.397,
            "lang_2": 1.387, "team_exp": -0.0459, "manager_exp": 0.0622,
            "envergure": 0.0208}
NOISE_SD = 0.384

# Mean and sd of ln(Transactions) and ln(Entities), and their correlation.
LN_TRANSACTIONS = (4.848, 0.989)
LN_ENTITIES = (4.291, 0.894)
LN_SIZE_CORRELATION = -0.305
# Sizes are redrawn until PNA reaches the bundled minimum. PointsAdjust is
# then at least 73 * 0.70 = 51, so rounding it to an integer moves it by at
# most 1%, inside the 2% tolerance.
MIN_POINTS_NON_ADJUST = 73

# Frequencies of the discrete attributes among the bundled rows.
LANGUAGE_WEIGHTS = {1: 44, 2: 23, 3: 10}
TEAM_EXP_WEIGHTS = {0: 12, 1: 13, 2: 18, 3: 19, 4: 15}
MANAGER_EXP_WEIGHTS = {0: 8, 1: 15, 2: 13, 3: 21, 4: 14, 5: 4, 6: 2}
YEAR_END_WEIGHTS = {82: 1, 83: 2, 84: 4, 85: 23, 86: 25, 87: 12, 88: 10}
# Envergure: normal, rounded and clipped to the bundled range.
ENVERGURE = (28.64, 10.43, 5, 52)
# Length: ln(Length) = a + b ln(PNA) + noise, clipped to the bundled range.
LN_LENGTH = (1.359, 0.140, 0.788, 1, 39)


def expected_adjust(points_non_adjust: float, envergure: int) -> float:
    return points_non_adjust * (0.65 + 0.01 * envergure)


def _pick(rng: random.Random, weights: dict[int, int]) -> int:
    return rng.choices(tuple(weights), weights=tuple(weights.values()))[0]


def _sizes(rng: random.Random) -> tuple[int, int]:
    rho = LN_SIZE_CORRELATION
    while True:
        z1, z2 = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        transactions = round(math.exp(LN_TRANSACTIONS[0]
                                      + LN_TRANSACTIONS[1] * z1))
        entities = round(math.exp(
            LN_ENTITIES[0]
            + LN_ENTITIES[1] * (rho * z1 + math.sqrt(1 - rho * rho) * z2)))
        if transactions + entities >= MIN_POINTS_NON_ADJUST:
            return transactions, entities


def generate_rows(n: int, seed: int) -> list[tuple[int, ...]]:
    """n data rows in COLUMNS order; identical for identical (n, seed)."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        language = _pick(rng, LANGUAGE_WEIGHTS)
        team_exp = _pick(rng, TEAM_EXP_WEIGHTS)
        manager_exp = _pick(rng, MANAGER_EXP_WEIGHTS)
        year_end = _pick(rng, YEAR_END_WEIGHTS)
        mean, sd, low, high = ENVERGURE
        envergure = min(high, max(low, round(rng.gauss(mean, sd))))
        transactions, entities = _sizes(rng)
        pna = transactions + entities
        points_adjust = round(expected_adjust(pna, envergure))
        ln_effort = (FULL_FIT["intercept"]
                     + FULL_FIT["ln_size"] * math.log(pna)
                     + FULL_FIT["lang_1"] * (language == 1)
                     + FULL_FIT["lang_2"] * (language == 2)
                     + FULL_FIT["team_exp"] * team_exp
                     + FULL_FIT["manager_exp"] * manager_exp
                     + FULL_FIT["envergure"] * envergure
                     + rng.gauss(0.0, NOISE_SD))
        effort = max(1, round(math.exp(ln_effort)))
        a, b, sd, low, high = LN_LENGTH
        length = min(high, max(low, round(math.exp(
            a + b * math.log(pna) + rng.gauss(0.0, sd)))))
        rows.append((i + 1, team_exp, manager_exp, year_end, length, effort,
                     transactions, entities, pna, envergure, points_adjust,
                     language))
    return rows


def render_csv(rows: list[tuple[int, ...]]) -> str:
    lines = [",".join(COLUMNS)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_dataset(path: str, n: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_csv(generate_rows(n, seed)))
