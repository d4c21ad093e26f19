"""Byte-identical outputs on small fixed runs.

The files under ``golden/`` were written by the package before the
integrators took their monitor rows from the stage evaluations, and the
``scan_rolling_penny``/``scan_von_neumann2`` reports before ``scan`` evaluated
its samples in one batch, and the ``rk45_vak_paramecium``,
``rk45_vak_constrained_particle`` and ``rk45_nh_martinet`` trajectories before
the field evaluations came from one fused kernel, and the ``compare_*`` outputs
before ``compare`` evaluated its state on the batched path of ``scan``; every
change since must reproduce them byte for byte: the same steps, the same states, the same monitors and the same
records and skip messages.
"""

from pathlib import Path

import pytest

from vaknh.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"
CANDIDATES = str(GOLDEN / "martinet.cand")

CASES = {
    "rk45_vak_rolling_penny.csv": [
        "integrate", "rolling_penny", "--dynamics", "vak", "--q=0,0,0.3,0.4",
        "--v=1.0,0.5", "--p=0.7,-0.2", "--t-end", "2"],
    "rk45_vak_martinet.csv": [
        "integrate", "martinet", "--dynamics", "vak", "--q=0,1,0", "--v=0.8,-0.4",
        "--p=1.2", "--t-end", "2", "--candidates", CANDIDATES],
    "rk45_vak_paramecium.csv": [
        "integrate", "paramecium", "--dynamics", "vak", "--q=0.1,-0.2,0",
        "--v=0.6,0.9", "--p=0.4", "--t-end", "4"],
    "rk45_vak_constrained_particle.csv": [
        "integrate", "constrained_particle", "--dynamics", "vak", "--q=0,0.5,0",
        "--v=1.0,-0.3", "--p=0.25", "--t-end", "2"],
    "rk45_nh_martinet.csv": [
        "integrate", "martinet", "--dynamics", "nh", "--q=0,1,0", "--v=0.8,-0.4",
        "--t-end", "6"],
    "rk4_nh_rolling_penny.csv": [
        "integrate", "rolling_penny", "--dynamics", "nh", "--q=0,0,0.2,0.3",
        "--v=0.7,0.4", "--method", "rk4", "--dt", "0.05", "--t-end", "1"],
    "scan_martinet_legendre.json": [
        "scan", "martinet", "--samples", "40", "--seed", "7", "--p-mode", "legendre",
        "--candidates", CANDIDATES],
    "scan_rolling_penny.json": [
        "scan", "rolling_penny", "--samples", "30", "--seed", "11"],
    "scan_von_neumann2.json": [
        "scan", "von_neumann2", "--samples", "20", "--seed", "3"],
    "compare_martinet.json": [
        "compare", "martinet", "--q=0,1,0", "--v=0.8,-0.4", "--p=1.2",
        "--candidates", CANDIDATES],
    "compare_rolling_penny.json": [
        "compare", "rolling_penny", "--q=0,0,0.3,0.4", "--v=1.0,0.5", "--p=0.7,-0.2"],
    "compare_paramecium.json": [
        "compare", "paramecium", "--q=0.1,-0.2,0", "--v=0.6,0.9", "--p=0.4"],
    "compare_constrained_particle.json": [
        "compare", "constrained_particle", "--q=0,0.5,0", "--v=1.0,-0.3", "--p=0.25"],
    "compare_holonomic_demo.json": [
        "compare", "holonomic_demo", "--q=0.3,-0.8,0.5", "--v=0.7,0.2", "--p=0.4"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical_to_golden(name, capsys):
    assert run(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
