import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavqed
from cavqed import config, spectra
from cavqed.cli import _COMMANDS, main
from cavqed.units import HBAR_UEV_PS, energy_from_wavelength

# shared emitter/cavity scales matching the fixture parameter set
ZPL_ENERGY = energy_from_wavelength(1275.0)
KAPPA = ZPL_ENERGY / 1.12e4          # 86.824 ueV
GAMMA = HBAR_UEV_PS / 256.0          # 2.5711 ueV


def run_python(*args, cwd=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=True):
    """The completed fresh interpreter that ran with the command-line
    arguments `args`, in `cwd`, with this cavqed on its path; its stdout
    and stderr go to `stdout` and `stderr`, and with `check` it must have
    exited 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(cavqed.__file__).parents[1]))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout,
                          stderr=stderr, text=True, timeout=300)
    if check:
        assert done.returncode == 0, done.stderr[-2000:]
    return done


def run_pl(command, out, *extra, **kwargs):
    """`python -m cavqed.cli <command> --fixture paper --out <out>` in a
    fresh process, as the installed `pl` script runs it (see run_python)."""
    return run_python("-m", "cavqed.cli", command, "--fixture", "paper", "--out", str(out),
                      *extra, **kwargs)


def run_main(tmp_path, command, *extra, config=None, name="run"):
    """(exit code, out dir) of `pl <command> --fixture paper` run in this
    process by `cli.main`, into `tmp_path / name`, with the arguments
    `extra` and the config overlay `config` (None: no --config; a str is
    written as it is, for JSON that json.dumps would not produce)."""
    out = tmp_path / name
    argv = [command, "--fixture", "paper", "--out", str(out)]
    if config is not None:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(cfg_path)]
    return main([*argv, *extra]), out


def paper_tables(index=None, **cells):
    """The paper's tables S1 and S2 as a config overlay to edit, with
    `cells` set in row `index` of cavity.modes."""
    paper = config.load("paper")
    tables = {"cavity": {"modes": [dict(row) for row in paper["cavity"]["modes"]]},
              "budget": {"chains": {path: dict(stages)
                                    for path, stages in paper["budget"]["chains"].items()}}}
    if cells:
        tables["cavity"]["modes"][index].update(cells)
    return tables


# a `pl` run: its exit code, its --out directory and the report that its
# stdout line holds (None unless it exited 0)
PaperRun = collections.namedtuple("PaperRun", "code out report")


@pytest.fixture(scope="session")
def paper_runs(tmp_path_factory):
    """`pl <command> --fixture paper`, once per command and session, and
    the noise-free `pl brightness` as "brightness-noise-free": a PaperRun
    by name.  Tests read these runs and write nothing under them."""
    root = tmp_path_factory.mktemp("pl")
    noise_free = root / "noise-free.json"
    noise_free.write_text(json.dumps({"analysis": {"brightness": {"noise_frac": 0}}}))
    argv = {command: [command] for command in _COMMANDS}
    argv["brightness-noise-free"] = ["brightness", "--config", str(noise_free)]
    runs = {}
    for name, (command, *extra) in argv.items():
        done = run_pl(command, root / name, *extra, check=False)
        report = None
        if done.returncode == 0:
            printed = json.loads(done.stdout)  # its one line
            assert printed["command"] == command
            report = printed["report"]
        runs[name] = PaperRun(done.returncode, root / name, report)
    return runs


@pytest.fixture(scope="session")
def paper_model():
    return config.emitter_from_config(config.load("paper"))


@pytest.fixture(scope="session")
def paper_grid():
    return spectra.energy_grid(ZPL_ENERGY, 6000.0, 4.0)


@pytest.fixture(scope="session")
def paper_fs_spectrum(paper_model, paper_grid):
    return spectra.build_fs_spectrum(paper_model, paper_grid)


def lorentzian_area2pi(grid, center, fwhm):
    """Area-2pi Lorentzian renormalized on the grid (tails clipped)."""
    values = spectra.lorentzian(grid, center, fwhm)
    values = values * (2.0 * np.pi / np.trapezoid(values, grid))
    return spectra.Spectrum(grid, values)


def measure_fwhm(x, y):
    """Full width at half maximum by linear interpolation of crossings."""
    half = y.max() / 2.0
    above = np.where(y >= half)[0]
    i0, i1 = above[0], above[-1]

    def cross(ia, ib):
        return x[ia] + (half - y[ia]) * (x[ib] - x[ia]) / (y[ib] - y[ia])

    left = cross(i0 - 1, i0) if i0 > 0 else x[0]
    right = cross(i1 + 1, i1) if i1 + 1 < x.size else x[-1]
    return right - left
