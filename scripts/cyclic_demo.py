"""The self-denying promise: detected as cyclic, rejected by evaluation,
and its finite unfoldings keep depending on the seed value."""

import sys
from pathlib import Path

try:
    import illoc  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from illoc.boolalg import AlgebraSpec
from illoc.hyper import standard
from illoc.matrix_mb import MBValuation, eval_mb, unfold_cyclic
from illoc.syntax import CyclicAct, detect_cycles, parse

SOURCE = "act x = [promise](~x); x"


def main():
    spec = AlgebraSpec(("a", "b"))
    parsed = parse(SOURCE)
    print(f"program: {SOURCE}")
    print(f"cycles: {detect_cycles(parsed.definitions)}")
    try:
        eval_mb(parsed.formula, MBValuation(spec), parsed.definitions)
    except CyclicAct as err:
        print(f"direct evaluation: CyclicAct({err.args[0]})")

    seeds = {"*0": standard(spec.bottom()), "*1": standard(spec.top())}
    print("\nfinite unfoldings (value after k unfolding rounds):")
    print("  k   seed *0        seed *1")
    for k in range(7):
        row = [
            str(unfold_cyclic(parsed.definitions, "x", k, seed))
            for seed in seeds.values()
        ]
        print(f"  {k}   {row[0]:<12s}   {row[1]:<12s}")
    print(
        "\nThe two columns never converge: each deeper unfolding flips the"
        "\nvalue, so no member of the extension can serve as the act's value."
    )


if __name__ == "__main__":
    main()
