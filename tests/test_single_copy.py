"""Each job that once had two copies in lrforge keeps exactly one.

A second copy of one of these sequences would drift from the first: a CSV
writer, the store's conflict rule, the grid rule, a model's descriptor, the
policy-name table cell, a trial command's front half, each shared flag, a
leaderboard row, a cell's seeds, a trial context built field by field and a
count's message. Each text below names one, and must appear in exactly one
place; zero would mean the text went stale, not that the job went.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "lrforge")

# each text, and the module that holds its one copy
ONE_COPY = {
    "csv.writer(": "trainer.py",                          # write_csv
    "raise StoreConflict(": "store.py",                   # PolicyStore._known
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
    "must be >= {low}, got": "schedule.py",               # need_count, every count's message
    "isinstance(value, (int, float))": "schedule.py",     # number, the one number test
}


def test_each_job_has_one_copy():
    texts = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as f:
                texts[name] = f.read()
    found = {text: {name: body.count(text) for name, body in texts.items() if text in body}
             for text in ONE_COPY}
    assert found == {text: {home: 1} for text, home in ONE_COPY.items()}
    # _Widths.descriptor serves both model specs; optim's OptimizerSpec has its own
    assert texts["model.py"].count("def descriptor") == 1
