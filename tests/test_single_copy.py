"""Each job that once had two copies in lrforge keeps exactly one.

A second copy of one of these sequences would drift from the first: a CSV
writer, the store's conflict rule, the grid rule, a model's descriptor, the
policy-name table cell, a trial command's front half, each shared flag, a
leaderboard row, a cell's seeds, a trial context built field by field, a
count's message and the message of a rejected value. Each text below names
one, and must appear in exactly one place; zero would mean the text went
stale, not that the job went. The divergence check of a step, once made by
both the trainer and `optim.step`, is the trainer's alone.
"""

import ast
import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "lrforge")

# each text, and the module that holds its one copy
ONE_COPY = {
    "csv.writer(": "trainer.py",                          # write_csv
    "error=StoreConflict": "store.py",                    # PolicyStore._known
    "values must be positive and finite": "tuner.py",     # _check_grid
    "name[:41]": "cli.py",                                # _short_name
    "_open_db(args, doc)": "cli.py",                      # _setup, each trial command's front
    'add_argument("--manifest"': "cli.py",                # build_parser's parent parsers
    'add_argument("--out-dir"': "cli.py",
    'add_argument("--db"': "cli.py",
    'add_argument("--workers"': "cli.py",
    "{cell.lam:>10g}": "cli.py",                          # _print_leaderboard's one row
    "seed + r": "tuner.py",                               # _run_cells, a cell's seeds
    "TrialContext(": "cli.py",                            # elsewhere replace(ctx, ...)
    "must be >= %r, got": "schedule.py",                  # need_count, every count's message
    "% tuple(map(": "schedule.py",                        # need, every rejected value's message
    "isinstance(value, (int, float))": "schedule.py",     # number, the one number test
    "json.loads(": "schedule.py",                         # read_json, the one JSON reader
}


def _sources() -> dict:
    texts = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as f:
                texts[name] = f.read()
    return texts


def test_each_job_has_one_copy():
    texts = _sources()
    found = {text: {name: body.count(text) for name, body in texts.items() if text in body}
             for text in ONE_COPY}
    assert found == {text: {home: 1} for text, home in ONE_COPY.items()}
    # _Widths.descriptor serves both model specs; optim's OptimizerSpec has its own
    assert texts["model.py"].count("def descriptor") == 1


def test_only_schedule_formats_a_rejected_value():
    texts = _sources()
    # a value reaches a message only through schedule.need, which shows it
    assert [name for name, body in texts.items() if "shown(" in body] == ["schedule.py"]
    # a whole spec in a message shows every field through its repr, which an
    # int too long to print breaks
    assert [name for name, body in texts.items() if re.search(r"\{self(![rs])?\}", body)] == []
    # every raise is need's own, or a re-raise inside an except block
    raises = []
    for name, body in texts.items():
        tree = ast.parse(body)
        handled = {id(node) for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
                   for node in ast.walk(handler)}
        raises += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Raise) and id(node) not in handled]
    need = next(node for node in ast.walk(ast.parse(texts["schedule.py"]))
                if isinstance(node, ast.FunctionDef) and node.name == "need")
    assert raises == [f"schedule.py:{need.body[-1].body[0].lineno}"]


def test_only_the_trainer_decides_divergence():
    # optim.step is the update alone: the trainer's one rule (a loss, gradient
    # or LR that is not finite) is the only divergence check of a step, so
    # optim holds no finiteness test and defines no error of its own
    optim = _sources()["optim.py"]
    assert "isfinite" not in optim
    assert [node.name for node in ast.walk(ast.parse(optim))
            if isinstance(node, ast.ClassDef)] == ["OptimizerSpec", "OptimizerState"]
