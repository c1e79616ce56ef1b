"""Regenerate the fixed chain-300 inputs (not seeded by --seed).

    python3 bench/inputs/make_chain300.py

chain300.wa is chain-300 with weights from random.Random(300);
chain300.wfo is its `wfoc tologic` output, kept as a file because
producing it takes the program about half a minute.
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import gen  # noqa: E402
from wfoc.cli import main  # noqa: E402

if __name__ == "__main__":
    wa = os.path.join(HERE, "chain300.wa")
    with open(wa, "w", encoding="utf-8") as handle:
        handle.write(gen.chain(300, random.Random(300)))
    sys.exit(main(["tologic", "--automaton", wa,
                   "-o", os.path.join(HERE, "chain300.wfo")]))
