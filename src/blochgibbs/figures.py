"""Deterministic CSV data behind the six standard figures.

Every figure is a header row plus numeric rows formatted with 17
significant digits (round-trip exact), LF line endings.  Identical
configuration always produces byte-identical output.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .errors import DomainError
from .magnetics import brosseau_polarization, reduced_temperature
from .models import (POWER_LAW_MODELS, GibbsPoint, ModelKind,
                     integrated_density, mean_energy, mean_polarization,
                     var_energy)

__all__ = ["FIGURE_IDS", "figure_table", "write_csv", "render_figure_csv"]

FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

# np.logspace arguments: log10 of the ends, then the point count
_BETA_GRID = (-2.0, 3.0, 400)
_E0_GRID = (-5.0, 1.7, 400)


def figure_table(fig_id: str) -> tuple[list[str], list[tuple[float, ...]]]:
    """(header, rows) for one figure id."""
    if fig_id not in FIGURE_IDS:
        raise DomainError(f"unknown figure id {fig_id!r}; know {FIGURE_IDS}")

    if fig_id == "fig1":
        betas = np.logspace(*_BETA_GRID)
        header = ["beta", "quaternionic", "complex", "real", "classical",
                  "brosseau"]
        cols = [mean_polarization(GibbsPoint(m, betas))
                for m in POWER_LAW_MODELS]
        return header, list(zip(betas, *cols, map(brosseau_polarization, betas)))

    if fig_id in ("fig2", "fig3"):
        betas = np.logspace(*_BETA_GRID)
        fn = mean_energy if fig_id == "fig2" else var_energy
        what = "mean_energy" if fig_id == "fig2" else "var_energy"
        header = ["beta"] + [f"{what}_{m.value}" for m in POWER_LAW_MODELS]
        cols = [fn(GibbsPoint(m, betas)) for m in POWER_LAW_MODELS]
        return header, list(zip(betas, *cols))

    if fig_id == "fig4":
        e0s = np.logspace(*_E0_GRID)
        header = ["e0", "complex", "quaternionic", "real", "classical", "kmb"]
        cols = [integrated_density(ModelKind(name), e0s) for name in header[1:]]
        return header, list(zip(e0s, *cols))

    if fig_id == "fig5":
        betas = np.logspace(*_BETA_GRID)
        header = ["beta", "kmb", "complex", "gap"]
        pk = mean_polarization(GibbsPoint(ModelKind.KMB, betas))
        pc = mean_polarization(GibbsPoint(ModelKind.COMPLEX, betas))
        return header, list(zip(betas, pk, pc, pk - pc))

    # fig6: the log-log polarization/temperature relation
    betas = np.logspace(*_BETA_GRID)
    header = ["ln_beta", "ln_reduced_temperature"]
    rows = [(math.log(b), math.log(t))
            for b, t in zip(betas, reduced_temperature(betas))]
    return header, rows


def write_csv(header: list[str], rows, stream) -> None:
    """17-significant-digit CSV with LF line endings, one value per header
    column in each row.  Each row is formatted with one %-string and the
    rows are written in one piece: the bytes of formatting every cell with
    ``{:.17g}`` (inf, nan, -0.0, subnormals and numpy floats included) at
    about half its cost."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    stream.write(",".join(header) + "\n"
                 + "".join([line % tuple(row) for row in rows]))


def render_figure_csv(fig_id: str) -> str:
    header, rows = figure_table(fig_id)
    buf = io.StringIO()
    write_csv(header, rows, buf)
    return buf.getvalue()
