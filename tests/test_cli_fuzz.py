"""CLI mutation fuzz: `estimate --roi`, `estimate --cascade`, `groundtruth`,
`evaluate` and `convert-cascade` on seeded mutations of a small
multi-trial dataset's manifest.txt, physio.csv and frames.ppm, of a
cascade JSON, of est.csv and gt.csv, and of an OpenCV XML cascade, which
also runs once with a declaration of an encoding Python does not know.

Each call must exit 0 with nothing on stderr, or 1 with one `error:` line
on stderr that names a file the call reads or a trial. No exception may
escape `cli.main`.

The calls run in child processes as test_settings_fuzz's do, under its
address-space limit and per-call alarm, and with two CPUs as far as
`ingest.in_order` can tell, so that the trials run in forked worker
processes. Run as a script, this file is such a child: `python
tests/test_cli_fuzz.py JOBS.json` reads a JSON list of argument lists and
prints a JSON list of [exit code, stdout, stderr].
"""

import os
import re
import sys
from pathlib import Path

import numpy as np

ROI = "manual:12,5,8,10"   # the synthetic face box at 32x32
NOCROP = "0,0,0,0"
# mutations of each file
CASES = 8
DATASET_FILES = ("manifest.txt", "physio.csv", "frames.ppm")
OTHER_FILES = ("cascade.json", "est.csv", "gt.csv")
XML_FILE = "cascade.xml"
# finite values of a result CSV's number cells at and past the ends of
# their domains: overflowing errors, the smallest subnormal, a negative
# zero and a negative rate
EXTREMES = ("1.7e308", "-1.7e308", "1e200", "5e-324", "-0.0", "-72.0")

# the summary lines that follow a trial line for every trial, and so name
# no file and no trial themselves
SUMMARY_ERRORS = ("error: face detection failed on every trial",
                  "error: no trial gave an estimate",
                  "error: no trial gave a reference rate")


def _mutate(rng, data, record=None):
    """`data` with one seeded mutation: in half the cases 1-3 bytes of any
    value replaced, inserted or deleted, otherwise a span deleted or
    repeated, or the end cut off. With a `record` size, the bytes are
    replaced, most of them at the start of a record, and the spans are
    whole records."""
    data = bytearray(data)
    kind = int(rng.choice(4, p=[1 / 2, 1 / 6, 1 / 6, 1 / 6]))
    at = int(rng.integers(len(data)))
    span = int(rng.integers(1, 80))
    if record:
        at, span = at // record * record, span // 40 * record + record
    if kind == 0:
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(data)))
            byte, edit = int(rng.integers(256)), int(rng.integers(3))
            if record:
                edit = 0
                if rng.random() < 0.8:
                    at = at // record * record + int(rng.integers(16))
            if edit == 0:
                data[at] = byte
            elif edit == 1:
                data.insert(at, byte)
            else:
                del data[at]
    elif kind == 1:
        del data[at:at + span]
    elif kind == 2:
        data[at:at] = data[at:at + span]
    else:
        del data[at:]
    return bytes(data)


def _set_cell(rng, data, value):
    """A result CSV's bytes with one seeded number cell (a rate, or
    skin_gray) set to `value`."""
    header, *rows = data.decode("ascii").splitlines()
    row = int(rng.integers(len(rows)))
    cells = rows[row].split(",")
    cells[int(rng.integers(3, len(cells) - 1))] = value
    rows[row] = ",".join(cells)
    return "\n".join([header] + rows).encode("ascii") + b"\n"


def _jobs(clean, rng, root):
    """(argv, files the call reads) of every fuzz call: CASES mutations of
    each file, and for est.csv and gt.csv one cell set to each of
    EXTREMES, each in its own directory beside links to the clean files.
    The XML cascade's cases come last, with the unknown encoding as its
    fixed extra case."""
    from camvitals.ingest import _frames_file, parse_manifest

    _, _, record = _frames_file(clean / "ds", parse_manifest(clean / "ds" / "manifest.txt"))
    cases = [(name, str(i), None) for name in DATASET_FILES + OTHER_FILES
             for i in range(CASES)]
    cases += [(name, f"value{i}", value) for name in OTHER_FILES[1:]
              for i, value in enumerate(EXTREMES)]
    xml = (clean / XML_FILE).read_bytes()
    cases += [(XML_FILE, str(i), None) for i in range(CASES)]
    cases += [(XML_FILE, "encoding", xml.replace(b"?>", b' encoding="foo"?>', 1))]
    jobs = []
    for name, label, value in cases:
        case = root / f"{name}-{label}"
        ds = case / "ds"
        ds.mkdir(parents=True)
        for other in DATASET_FILES:
            os.symlink(clean / "ds" / other, ds / other)
        for other in OTHER_FILES + (XML_FILE,):
            os.symlink(clean / other, case / other)
        path = (ds if name in DATASET_FILES else case) / name
        source = path.resolve()
        path.unlink()
        data = source.read_bytes()
        if value is None:
            data = _mutate(rng, data, record if name == "frames.ppm" else None)
        elif name == XML_FILE:
            data = value
        else:
            data = _set_cell(rng, data, value)
        path.write_bytes(data)
        out = str(case / "out.csv")
        roi = (["estimate", "--data", str(ds), "--out", out, "--roi", ROI, "--crop", NOCROP],
               [ds / "manifest.txt", ds / "frames.ppm"])
        gt = (["groundtruth", "--data", str(ds), "--out", out],
              [ds / "manifest.txt", ds / "physio.csv"])
        cascade = (["estimate", "--data", str(ds), "--out", out, "--crop", NOCROP,
                    "--cascade", str(case / "cascade.json")],
                   [ds / "manifest.txt", ds / "frames.ppm", case / "cascade.json"])
        evaluate = (["evaluate", "--estimates", str(case / "est.csv"), "--groundtruth",
                     str(case / "gt.csv"), "--out", str(case / "report")],
                    [case / "est.csv", case / "gt.csv"])
        convert = (["convert-cascade", "--xml", str(path), "--out", str(case / "out.json")],
                   [path])
        jobs += {"manifest.txt": [roi, gt], "physio.csv": [gt], "frames.ppm": [roi],
                 "cascade.json": [cascade], "est.csv": [evaluate],
                 "gt.csv": [evaluate], XML_FILE: [convert]}[name]
    return jobs


def _non_finite_cells(report):
    """"file:line" of every inf or nan cell of an evaluate report's CSVs."""
    return [f"{path.name}:{line}" for path in sorted(report.glob("*.csv"))
            for line, text in enumerate(path.read_text().splitlines(), 1)
            if {"inf", "-inf", "nan"} & set(text.split(","))]


def _names_a_file_or_a_trial(line, files):
    rest = line.removeprefix("error: ")
    return (re.match(r"trial \d+: ", rest) is not None
            or any(rest.startswith(f"{f}:") for f in files))


def test_mutated_inputs_exit_0_or_1_with_one_named_error(tmp_path):
    from conftest import run_cli_calls
    from test_detect import OPENCV_XML

    from camvitals.cli import main
    from camvitals.detect import Cascade, Stage, Tree, save_cascade
    from camvitals.geometry import Rect
    from camvitals.synth import SynthConfig, TrialPlan, synth_dataset

    clean = tmp_path / "clean"
    # a respiration trial, a hold-breath trial and a gaze trial of 9 s
    synth_dataset([TrialPlan(1, "respiration", 1, 9.0), TrialPlan(2, "respiration", 2, 9.0),
                   TrialPlan(3, "gaze", 3, 9.0)], SynthConfig(width=32, height=32),
                  clean / "ds", seed=37)
    # a 28x28 window that every window passes: at most 29 windows a frame
    # however a mutation moves its numbers
    tree = Tree(rects=((Rect(0, 0, 28, 28), 1.0),), threshold=0.0,
                pass_value=1.0, fail_value=0.0)
    save_cascade(clean / "cascade.json",
                 Cascade(window_w=28, window_h=28, stages=(Stage(0.5, (tree,)),)))
    (clean / XML_FILE).write_text(OPENCV_XML)
    assert main(["estimate", "--data", str(clean / "ds"), "--out", str(clean / "est.csv"),
                 "--roi", ROI, "--crop", NOCROP]) == 0
    assert main(["groundtruth", "--data", str(clean / "ds"),
                 "--out", str(clean / "gt.csv")]) == 0

    jobs = _jobs(clean, np.random.default_rng(43), tmp_path / "cases")
    results = run_cli_calls(__file__, [argv for argv, _ in jobs], tmp_path)

    failures, codes = [], []
    for (argv, files), (rc, out, err) in zip(jobs, results, strict=True):
        lines = err.splitlines()
        codes.append(rc)
        if rc == 0:
            # and a report holds no inf or nan
            ok = err == "" and not (argv[0] == "evaluate"
                                    and _non_finite_cells(Path(argv[argv.index("--out") + 1])))
        elif rc == 1 and len(lines) == 1:
            ok = lines[0] in SUMMARY_ERRORS or _names_a_file_or_a_trial(lines[0], files)
        else:
            ok = False
        if not ok:
            failures.append(f"{' '.join(argv)}: exit {rc}\n{out}{err}")
    assert not failures, "\n".join(failures)
    # the mutations reach both outcomes
    assert set(codes) == {0, 1}


if __name__ == "__main__":
    # two CPUs, so that in_order forks its workers on any machine
    os.sched_getaffinity = lambda pid: {0, 1}
    from test_settings_fuzz import _run_calls

    _run_calls(sys.argv[1])
